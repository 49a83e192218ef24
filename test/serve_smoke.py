#!/usr/bin/env python3
"""Treat a running `ivy serve` daemon the way broken clients would, then
require that it still answers `stats`.

usage: serve_smoke.py SOCKET STATS-COMMAND...

While one client that sent 40 corpus checks and reads nothing stays
connected, a second sends a garbage frame, which must get a -32700
error, and a third sends a request line over the daemon's 16 MiB line
cap, which must get a -32600 error and a closed connection. Then
STATS-COMMAND (e.g. `ivy rpc stats --socket SOCKET`) must exit 0
within 10 s. Exits non-zero on any failure. Standard library only.
"""

import json
import socket
import subprocess
import sys

LINE_CAP = 16 << 20


def connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(path)
    return s


def read_line(s):
    buf = b""
    while b"\n" not in buf:
        data = s.recv(65536)
        if not data:
            break
        buf += data
    line, _, rest = buf.partition(b"\n")
    return line, rest


def error_code(line):
    return json.loads(line.decode("utf-8", "replace"))["error"]["code"]


def main():
    path, stats_cmd = sys.argv[1], sys.argv[2:]
    hog = connect(path)
    hog.sendall(
        b"".join(
            b'{"id":%d,"method":"check","params":{"corpus":true}}\n' % i
            for i in range(1, 41)
        )
    )

    garbage = connect(path)
    garbage.sendall(b"\x00\xff}{ not a frame\n")
    line, _ = read_line(garbage)
    garbage.close()
    if error_code(line) != -32700:
        sys.exit("garbage frame: expected error -32700, got %r" % line[:200])

    big = connect(path)
    big.sendall(b"x" * (LINE_CAP + 1))
    line, rest = read_line(big)
    eof = rest == b"" and big.recv(65536) == b""
    big.close()
    if error_code(line) != -32600 or not eof:
        sys.exit("over-cap line: expected error -32600 and a closed connection, got %r" % line[:200])

    try:
        subprocess.run(stats_cmd, check=True, timeout=10)
    except subprocess.TimeoutExpired:
        sys.exit("stats not answered within 10 s")
    finally:
        hog.close()
    print("serve-smoke: daemon answered stats after a non-reading client, "
          "a garbage frame and an over-cap line")


if __name__ == "__main__":
    main()

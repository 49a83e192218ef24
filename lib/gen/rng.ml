(* Splitmix64 (Steele, Lea & Flood, OOPSLA'14): a tiny, fast,
   well-mixed 64-bit generator whose state is a single counter.  Two
   properties matter here: it is trivially splittable (a child stream
   is just a reseed through the output function), and identical seeds
   give identical streams across OCaml versions and hosts, which is
   what makes fuzz campaigns and shrunk repros reproducible. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let next64 t =
  t.state <- Int64.add t.state golden;
  mix64 t.state

let split t = { state = next64 t }

let mix seed i =
  let s = { state = mix64 (Int64.of_int seed) } in
  s.state <- Int64.add s.state (Int64.mul golden (Int64.of_int (i + 1)));
  Int64.to_int (Int64.shift_right_logical (mix64 s.state) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* shift to 62 bits so Int64.to_int (63-bit OCaml int) stays non-negative *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: empty interval";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

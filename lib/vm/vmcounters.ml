(* Domain-safe named counters.

   A counter set hands every domain its own [(string, int ref)]
   Hashtbl through a DLS key; tables register themselves under a mutex
   the first time a domain touches the set, and stay registered after
   the domain dies so late merges still see its counts. Only the
   owning domain ever mutates its table, so the structural corruption
   a shared Hashtbl risks under concurrent [replace] cannot happen,
   and a count made on a fuzz worker domain survives into the merge.

   [table] and [reset] walk every registered table; they are meant to
   run while worker domains are quiescent (Par joins its domains
   before returning, so the usual snapshot points qualify). *)

type tbl = (string, int ref) Hashtbl.t

type t = { lock : Mutex.t; all : tbl list ref; key : tbl Domain.DLS.key }

let create () =
  let lock = Mutex.create () in
  let all = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let t : tbl = Hashtbl.create 32 in
        Mutex.lock lock;
        all := t :: !all;
        Mutex.unlock lock;
        t)
  in
  { lock; all; key }

let counter (c : t) (name : string) : int ref =
  let t = Domain.DLS.get c.key in
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t name r;
      r

let add (c : t) (name : string) (n : int) =
  let r = counter c name in
  r := !r + n

let bump (c : t) (name : string) = add c name 1

let registered (c : t) : tbl list =
  Mutex.lock c.lock;
  let ts = !(c.all) in
  Mutex.unlock c.lock;
  ts

(* Merged view: counts summed by name across every domain's table,
   zero rows dropped, sorted by count descending then name. *)
let table (c : t) : (string * int) list =
  let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun name r ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt merged name) in
          Hashtbl.replace merged name (prev + !r))
        t)
    (registered c);
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) merged []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (na, a) (nb, b) -> if a <> b then compare b a else compare na nb)

let reset (c : t) = List.iter Hashtbl.reset (registered c)

let render ~title (c : t) : string =
  let rows = table c in
  if rows = [] then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf (title ^ "\n");
    List.iter (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "  %-24s %12d\n" name n)) rows;
    Buffer.contents buf
  end

(* Sparse difference-bound matrix: a finite map from ordered variable
   pairs (x, y) to an int64 bound c, meaning x - y <= c.  Variables are
   plain integers (the Zone layer maps program variables and the
   distinguished zero variable onto them).  An absent pair means +oo
   (no constraint), so dropping entries is always sound.

   Design notes, load-bearing for termination of the analysis:

   - [widen old next] keeps an entry of [old] only when [next] does not
     weaken it, and *never* adopts entries or values from [next].  The
     key set of a widening sequence is therefore monotonically
     shrinking and the surviving values never change, so any widening
     chain is finite regardless of what the right-hand side does —
     including when downstream closure re-derives dropped entries.
   - Widening results are never closed in place; closure is applied to
     join *inputs* and to query-time copies only (see {!Zone}).

   Bound arithmetic saturates by *dropping*: if c1 + c2 overflows in
   either direction the derived constraint is discarded (treated as
   +oo), which is sound because absent = unconstrained. *)

(* Pairs ordered lexicographically, monomorphically: the same order as
   polymorphic [compare] on [int * int], so folds and [to_string] list
   entries exactly as before, without the generic comparison's cost. *)
module PM = Map.Make (struct
  type t = int * int

  let compare ((x1, y1) : t) ((x2, y2) : t) =
    let c = Int.compare x1 x2 in
    if c <> 0 then c else Int.compare y1 y2
end)

type t = int64 PM.t

let top : t = PM.empty
let is_top = PM.is_empty
let equal = PM.equal (fun (a : int64) b -> a = b)
let find_opt x y (t : t) = PM.find_opt (x, y) t
let fold f (t : t) acc = PM.fold (fun (x, y) c acc -> f x y c acc) t acc
let cardinal = PM.cardinal

(* d(a, b) with the implicit zero diagonal. *)
let bound (t : t) a b : int64 option = if a = b then Some 0L else PM.find_opt (a, b) t

let rec mem_int (v : int) = function [] -> false | x :: rest -> x = v || mem_int v rest

(* Distinct endpoints of [t] consed onto the distinct list [acc]: a
   zone holds few variables, so a linear membership test is cheaper
   than sorting every endpoint. *)
let add_vars (t : t) (acc : int list) : int list =
  PM.fold
    (fun (x, y) _ acc ->
      let acc = if mem_int x acc then acc else x :: acc in
      if mem_int y acc then acc else y :: acc)
    t acc

let vars (t : t) : int list = List.sort Int.compare (add_vars t [])
let union_vars (a : t) (b : t) : int list = List.sort Int.compare (add_vars a (add_vars b []))

(* a + b, None on overflow (the derived constraint is dropped). *)
let checked_add (a : int64) (b : int64) : int64 option =
  let s = Int64.add a b in
  (* overflow iff operands share a sign and the sum's sign differs *)
  if Int64.logxor a b >= 0L && Int64.logxor a s < 0L then None else Some s

let checked_add3 a b c =
  match checked_add a b with None -> None | Some s -> checked_add s c

(* Keep the tighter bound for [key]. *)
let tighten key v (t : t) =
  match PM.find_opt key t with Some c when c <= v -> t | _ -> PM.add key v t

exception Infeasible

(* [add x y c t]: record x - y <= c and propagate it one step through
   every existing path i -> x -> y -> j (incremental closure: complete
   when [t] was closed, sound otherwise).  Only the bounds d(i, x) and
   d(y, j) can extend the new edge, so the candidates are column [x]
   and row [y] of the updated map, each with its zero diagonal entry.
   [None] signals an infeasible state. *)
let add x y c (t : t) : t option =
  if x = y then if c < 0L then None else Some t
  else
    match bound t x y with
    | Some c0 when c0 <= c -> Some t
    | _ -> (
        let t = PM.add (x, y) c t in
        let into_x =
          PM.fold (fun (i, j) d acc -> if j = x && i <> x then (i, d) :: acc else acc) t [ (x, 0L) ]
        in
        let rec row acc s =
          match s () with
          | Seq.Cons (((i, j), d), rest) when i = y ->
              row (if j <> y then (j, d) :: acc else acc) rest
          | _ -> acc
        in
        let from_y = row [ (y, 0L) ] (PM.to_seq_from (y, min_int) t) in
        try
          Some
            (List.fold_left
               (fun acc (i, dix) ->
                 List.fold_left
                   (fun acc (j, dyj) ->
                     match checked_add3 dix c dyj with
                     | None -> acc
                     | Some v ->
                         if i <> j then tighten (i, j) v acc
                         else if v < 0L then raise Infeasible
                         else acc)
                   acc from_y)
               t into_x)
        with Infeasible -> None)

(* Dense scratch, one per domain (summaries are solved on a Par pool):
   a row-major n×n int64 matrix, a state byte per entry, and a column
   and a row buffer for an incremental add.  Growing on demand and
   reused across calls, a kernel run allocates only its result. *)
type scratch = {
  mutable m : Bytes.t;
  mutable st : Bytes.t;
  mutable col : int array;
  mutable colv : Bytes.t;
  mutable row : int array;
  mutable rowv : Bytes.t;
}

let scratch =
  Stdlib.Domain.DLS.new_key (fun () ->
      { m = Bytes.empty; st = Bytes.empty; col = [||]; colv = Bytes.empty; row = [||];
        rowv = Bytes.empty })

let absent = '\000'
let present = '\001'
let written = '\002'

(* Position of [v] in the universe, or -1: binary search over [keys]
   (the universe sorted) mapping back through [pos]. *)
let rec index_in (keys : int array) (pos : int array) v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let k = keys.(mid) in
    if k = v then pos.(mid)
    else if k < v then index_in keys pos v (mid + 1) hi
    else index_in keys pos v lo mid

(* Record [v] at [ij] of the dense matrix [m] when it is tighter than
   the entry there (or the entry is absent). *)
let[@inline] relax m st ij (v : int64) =
  if Bytes.unsafe_get st ij = absent || v < Bytes.get_int64_ne m (8 * ij) then begin
    Bytes.set_int64_ne m (8 * ij) v;
    Bytes.unsafe_set st ij written
  end

(* The kernel behind {!close_over}.  [t] is loaded into a dense matrix
   indexed by position in the universe [vs] (at least two variables,
   none repeated), with a zero diagonal.  Then:
   - each [(x, y, c)] of [adding] is {!add}ed: recorded and propagated
     one step through every path i -> x -> y -> j, column x and row y
     snapshotted before any tightened entry is written (as {!add} reads
     only the map it was given);
   - Floyd–Warshall runs in place, in k/i/j order over [vs].
   A sum that overflows is dropped; a negative diagonal sum is a
   negative cycle: [None] (infeasible state).  The result is [t] plus
   every entry the run wrote.  Entries with an endpoint outside the
   universe are neither read nor written and pass through, which is why
   a non-empty [adding] needs every variable of [t] and of its own
   constraints in [vs].

   The accessors are written out (or [@inline]) in the loops: int64
   values then stay unboxed, and [<] on int64 compiles inline where
   [Int64.compare] would be a C call. *)
let dense (adding : (int * int * int64) list) (vs : int list) (t : t) : t option =
  let u = Array.of_list vs in
  let n = Array.length u in
  let nn = n * n in
  let s = Stdlib.Domain.DLS.get scratch in
  if Bytes.length s.st < nn then begin
    s.m <- Bytes.create (8 * nn);
    s.st <- Bytes.create nn
  end;
  if Array.length s.col < n then begin
    s.col <- Array.make n 0;
    s.row <- Array.make n 0;
    s.colv <- Bytes.create (8 * n);
    s.rowv <- Bytes.create (8 * n)
  end;
  let m = s.m and st = s.st in
  let col = s.col and colv = s.colv and row = s.row and rowv = s.rowv in
  Bytes.fill st 0 nn absent;
  for i = 0 to n - 1 do
    Bytes.set_int64_ne m (8 * ((i * n) + i)) 0L;
    Bytes.unsafe_set st ((i * n) + i) present
  done;
  let pos = Array.init n Fun.id in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if u.(i - 1) >= u.(i) then sorted := false
  done;
  if not !sorted then Array.sort (fun a b -> Int.compare u.(a) u.(b)) pos;
  let keys = if !sorted then u else Array.map (fun p -> u.(p)) pos in
  let strict = match adding with [] -> false | _ :: _ -> true in
  let index v =
    let i = index_in keys pos v 0 n in
    if i < 0 && strict then invalid_arg "Dbm: constraint outside the universe";
    i
  in
  PM.iter
    (fun (x, y) c ->
      if x <> y then
        let i = index x in
        if i >= 0 then
          let j = index y in
          if j >= 0 then begin
            Bytes.set_int64_ne m (8 * ((i * n) + j)) c;
            Bytes.unsafe_set st ((i * n) + j) present
          end)
    t;
  let add_one (x, y, c) =
    let x = index x and y = index y in
    if x = y then begin
      if c < 0L then raise Infeasible
    end
    else
      let xy = (x * n) + y in
      if Bytes.unsafe_get st xy = absent || c < Bytes.get_int64_ne m (8 * xy) then begin
        relax m st xy c;
        let nc = ref 0 and nr = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.unsafe_get st ((i * n) + x) <> absent then begin
            col.(!nc) <- i;
            Bytes.set_int64_ne colv (8 * !nc) (Bytes.get_int64_ne m (8 * ((i * n) + x)));
            incr nc
          end;
          if Bytes.unsafe_get st ((y * n) + i) <> absent then begin
            row.(!nr) <- i;
            Bytes.set_int64_ne rowv (8 * !nr) (Bytes.get_int64_ne m (8 * ((y * n) + i)));
            incr nr
          end
        done;
        (* d(i, x) + c + d(y, j), each sum dropped on overflow *)
        for a = 0 to !nc - 1 do
          let i = col.(a) in
          let dix = Bytes.get_int64_ne colv (8 * a) in
          let dc = Int64.add dix c in
          if Int64.logxor dix c < 0L || Int64.logxor dix dc >= 0L then
            for b = 0 to !nr - 1 do
              let j = row.(b) in
              let dyj = Bytes.get_int64_ne rowv (8 * b) in
              let v = Int64.add dc dyj in
              if Int64.logxor dc dyj < 0L || Int64.logxor dc v >= 0L then
                if i <> j then relax m st ((i * n) + j) v
                else if v < 0L then raise Infeasible
            done
        done
      end
  in
  try
    List.iter add_one adding;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        let ik = (i * n) + k in
        if Bytes.unsafe_get st ik <> absent then begin
          let a = Bytes.get_int64_ne m (8 * ik) in
          for j = 0 to n - 1 do
            let kj = (k * n) + j in
            if Bytes.unsafe_get st kj <> absent then begin
              let b = Bytes.get_int64_ne m (8 * kj) in
              let v = Int64.add a b in
              (* overflow iff a and b share a sign that v lacks *)
              if Int64.logxor a b < 0L || Int64.logxor a v >= 0L then
                if i <> j then relax m st ((i * n) + j) v
                else if v < 0L then raise Infeasible
            end
          done
        end
      done
    done;
    let acc = ref t in
    for ij = 0 to nn - 1 do
      if Bytes.unsafe_get st ij = written then
        acc := PM.add (u.(ij / n), u.(ij mod n)) (Bytes.get_int64_ne m (8 * ij)) !acc
    done;
    Some !acc
  with Infeasible -> None

(* [close_over ~adding vs t] = {!add} each constraint of [adding] in
   order, then close over the universe [vs] (callers may widen it
   beyond [vars t], e.g. with query endpoints; [vs] must not repeat a
   variable). *)
let close_over ?(adding = []) (vs : int list) (t : t) : t option =
  match vs with
  | [] | [ _ ] ->
      List.fold_left
        (fun acc (x, y, c) -> match acc with None -> None | Some t -> add x y c t)
        (Some t) adding
  | _ -> dense adding vs t

(* Pointwise max over the keys common to both sides; keys present on
   only one side join with +oo and disappear.  Sound on arbitrary
   (even unclosed) arguments; precise when both arguments are closed. *)
let join (a : t) (b : t) : t =
  PM.merge
    (fun _ l r ->
      match (l, r) with
      | Some (x : int64), Some y -> Some (if x >= y then x else y)
      | _ -> None)
    a b

(* Keep an entry of [old] only where [next] hasn't weakened it.  Keys
   shrink monotonically and kept values never change: termination. *)
let widen (old : t) (next : t) : t =
  PM.filter
    (fun k c ->
      match PM.find_opt k next with
      | Some cn -> cn <= c
      | None -> false)
    old

(* Keep everything [old] knows; adopt [next]'s entries on keys [old]
   dropped (typically the ones widening destroyed). *)
let narrow (old : t) (next : t) : t =
  PM.union (fun _ c _ -> Some c) old next

let forget (v : int) (t : t) : t = PM.filter (fun (x, y) _ -> x <> v && y <> v) t

(* v := v + k, exact when the concrete addition cannot wrap (the caller
   certifies that): x - v <= c becomes x - v' <= c - k, v - y <= c
   becomes v' - y <= c + k.  Entries whose shifted bound overflows are
   dropped (sound: +oo). *)
let shift (v : int) (k : int64) (t : t) : t =
  if Int64.equal k Int64.min_int then forget v t (* -k not representable *)
  else
    PM.fold
      (fun (x, y) c acc ->
        let c' =
          if x = v then checked_add c k
          else if y = v then checked_add c (Int64.neg k)
          else Some c
        in
        match c' with Some c' -> PM.add (x, y) c' acc | None -> acc)
      t PM.empty

let entails_le x y c (t : t) : bool =
  match bound t x y with Some c0 -> c0 <= c | None -> false

let to_string (t : t) : string =
  let b = Buffer.create 64 in
  PM.iter
    (fun (x, y) c ->
      if Buffer.length b > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "v%d - v%d <= %Ld" x y c))
    t;
  if Buffer.length b = 0 then "T" else Buffer.contents b

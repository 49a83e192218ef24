(* Difference-bound matrix, stored flat: the constrained variables as a
   strictly increasing [int array], and one [Bytes] holding the n×n
   bounds (row-major, native-endian int64, entry (i, j) at byte
   8·(i·n + j)) followed by an n×n presence plane (one byte per entry,
   at 8·n² + i·n + j).  Entry (i, j) present with value c means
   vs.(i) - vs.(j) <= c; an absent entry means +oo (no constraint), so
   dropping entries is always sound.  The plane is needed because every
   int64, Int64.min_int and Int64.max_int included, is a legal bound.
   Variables are plain integers (the Zone layer maps program variables
   and the distinguished zero variable onto them).

   Canonical form, kept by every operation:
   - [vs] holds exactly the endpoints of present entries: an operation
     that drops entries (join, widen, forget, a shift that overflows)
     compacts the variables left without any;
   - the diagonal is never present, and an absent entry holds 0L.
   Two equal DBMs are therefore equal byte for byte, so [equal] is a
   memcmp, [vars] reads the array and [fold] runs row-major over sorted
   variables: the lexicographic (x, y) order.

   Values are persistent: an operation copies the matrix once (or
   builds its result fresh), works on the copy in place and returns it.
   Nothing is shared between calls, so several domains can use the
   module at once without any per-domain state.

   [closed] records that the entries satisfy the triangle inequality
   over the integers (no wrap-around): whenever (i, k) and (k, j) are
   present, d(i, k) + d(k, j) >= 0 if i = j, and otherwise (i, j) is
   present with d(i, j) <= d(i, k) + d(k, j).  Then Floyd–Warshall has nothing to derive,
   and {!add}ing a constraint one step through column x and row y
   closes the result again (incremental closure), so a closure of a
   closed matrix costs the adds that tighten something.  The flag is
   knowledge, not content: [equal] ignores it.  It holds for the
   result of a Floyd–Warshall run over all the variables without an
   overflowing sum, and survives {!add}, {!join}, {!forget} and
   {!shift} as long as no sum is dropped; {!widen} and {!narrow}
   clear it.

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
   +oo), which is sound because absent = unconstrained.

   The accessors are [@inline] so int64 values stay unboxed in the
   loops, and [<] on int64 compiles inline where [Int64.compare] would
   be a C call. *)

type t = { vs : int array; m : Bytes.t; closed : bool }

let top = { vs = [||]; m = Bytes.empty; closed = true }
let is_top t = Array.length t.vs = 0

(* Offset of the presence plane of an n-variable matrix. *)
let[@inline] plane n = 8 * n * n
let[@inline] get m ij = Bytes.get_int64_ne m (ij lsl 3)
let[@inline] has m p ij = Bytes.unsafe_get m (p + ij) <> '\000'

let[@inline] put m p ij (v : int64) =
  Bytes.set_int64_ne m (ij lsl 3) v;
  Bytes.unsafe_set m (p + ij) '\001'

let[@inline] clear m p ij =
  Bytes.set_int64_ne m (ij lsl 3) 0L;
  Bytes.unsafe_set m (p + ij) '\000'

(* An n-variable matrix with no entry. *)
let create n = Bytes.make (9 * n * n) '\000'

(* Record [v] at [ij] when it is tighter than the entry there (or the
   entry is absent). *)
let[@inline] relax m p ij (v : int64) = if (not (has m p ij)) || v < get m ij then put m p ij v

(* a + b = s did not overflow: it does iff a and b share a sign that s
   lacks. *)
let[@inline] no_overflow (a : int64) b s = Int64.logxor a b < 0L || Int64.logxor a s >= 0L

let rec ints_equal (a : int array) b i = i < 0 || (a.(i) = b.(i) && ints_equal a b (i - 1))

let equal a b =
  a == b
  ||
  let n = Array.length a.vs in
  n = Array.length b.vs && ints_equal a.vs b.vs (n - 1) && Bytes.equal a.m b.m

(* Position of [v] in the sorted [vs], or -1. *)
let rec search (vs : int array) v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let k = vs.(mid) in
    if k = v then mid else if k < v then search vs v (mid + 1) hi else search vs v lo mid

let[@inline] index vs v = search vs v 0 (Array.length vs)

let find_opt x y t =
  let n = Array.length t.vs in
  let i = index t.vs x in
  if i < 0 then None
  else
    let j = index t.vs y in
    if j < 0 then None
    else
      let ij = (i * n) + j in
      if has t.m (plane n) ij then Some (get t.m ij) else None

let fold f t acc =
  let n = Array.length t.vs and m = t.m in
  let p = plane n in
  let acc = ref acc in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let ij = (i * n) + j in
      if has m p ij then acc := f t.vs.(i) t.vs.(j) (get m ij) !acc
    done
  done;
  !acc

(* Row and column of [z], read together: one lookup of [z], then a walk
   of the sorted variables. *)
let fold_through z f t acc =
  let n = Array.length t.vs in
  let iz = index t.vs z in
  if iz < 0 then acc
  else begin
    let p = plane n and m = t.m in
    let acc = ref acc in
    for i = 0 to n - 1 do
      let vz = (i * n) + iz and zv = (iz * n) + i in
      if has m p vz || has m p zv then
        acc :=
          f t.vs.(i)
            (if has m p vz then Some (get m vz) else None)
            (if has m p zv then Some (get m zv) else None)
            !acc
    done;
    !acc
  end

let cardinal t =
  let n = Array.length t.vs in
  let p = plane n in
  let c = ref 0 in
  for ij = 0 to (n * n) - 1 do
    if has t.m p ij then incr c
  done;
  !c

let vars t = Array.to_list t.vs

(* Sorted union of two sorted variable arrays; [a] or [b] itself when
   it already holds the other. *)
let union (a : int array) (b : int array) : int array =
  let na = Array.length a and nb = Array.length b in
  let rec count i j k =
    if i >= na then k + nb - j
    else if j >= nb then k + na - i
    else
      let x = a.(i) and y = b.(j) in
      if x = y then count (i + 1) (j + 1) (k + 1)
      else if x < y then count (i + 1) j (k + 1)
      else count i (j + 1) (k + 1)
  in
  let k = count 0 0 0 in
  if k = na then a
  else if k = nb then b
  else begin
    let r = Array.make k 0 in
    let i = ref 0 and j = ref 0 in
    for o = 0 to k - 1 do
      if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
        r.(o) <- a.(!i);
        incr i
      end
      else begin
        if !i < na && a.(!i) = b.(!j) then incr i;
        r.(o) <- b.(!j);
        incr j
      end
    done;
    r
  end

let union_vars a b = Array.to_list (union a.vs b.vs)

(* For each variable of [a], its position in the sorted [b], or -1. *)
let locate (a : int array) (b : int array) : int array =
  let nb = Array.length b in
  let r = Array.make (Array.length a) (-1) in
  let j = ref 0 in
  Array.iteri
    (fun i x ->
      while !j < nb && b.(!j) < x do
        incr j
      done;
      if !j < nb && b.(!j) = x then r.(i) <- !j)
    a;
  r

(* The matrix of [t] laid out over [w], a sorted superset of [t.vs]. *)
let embed t (w : int array) : Bytes.t =
  let n = Array.length w and k = Array.length t.vs in
  if n = k then Bytes.copy t.m
  else begin
    let m = create n and src = t.m in
    let p = plane n and q = plane k in
    let pos = locate t.vs w in
    for i = 0 to k - 1 do
      let row = pos.(i) * n in
      for j = 0 to k - 1 do
        let ij = (i * k) + j in
        if has src q ij then put m p (row + pos.(j)) (get src ij)
      done
    done;
    m
  end

(* Does variable [i] of an n-variable matrix have an entry? *)
let rec live m p n i j = j < n && (has m p ((i * n) + j) || has m p ((j * n) + i) || live m p n i (j + 1))

(* Canonical form of the matrix [m] over [w]: the variables left
   without an entry are compacted away. *)
let normalize ~closed (w : int array) (m : Bytes.t) : t =
  let n = Array.length w in
  let p = plane n in
  let keep = ref 0 in
  for i = 0 to n - 1 do
    if live m p n i 0 then incr keep
  done;
  if !keep = n then { vs = w; m; closed }
  else if !keep = 0 then top
  else begin
    let k = !keep in
    let pos = Array.make k 0 in
    let o = ref 0 in
    for i = 0 to n - 1 do
      if live m p n i 0 then begin
        pos.(!o) <- i;
        incr o
      end
    done;
    let m' = create k and q = plane k in
    for i = 0 to k - 1 do
      let row = pos.(i) * n in
      for j = 0 to k - 1 do
        let src = row + pos.(j) in
        if has m p src then put m' q ((i * k) + j) (get m src)
      done
    done;
    { vs = Array.map (fun i -> w.(i)) pos; m = m'; closed }
  end

exception Infeasible

(* Column and row buffers for one {!add_at} over n variables. *)
type snapshot = { col : int array; colv : Bytes.t; row : int array; rowv : Bytes.t }

let snapshot n =
  { col = Array.make n 0; colv = Bytes.create (8 * n); row = Array.make n 0; rowv = Bytes.create (8 * n) }

(* Record x - y <= c (by positions) on the n×n matrix [m] in place and
   propagate it one step through every path i -> x -> y -> j
   (incremental closure: complete when the matrix was closed, sound
   otherwise).  Only the bounds d(i, x) and d(y, j) can extend the new
   edge, so the candidates are column x and row y with their zero
   diagonal entries, snapshotted into [s] before any tightened entry is
   written: the result is a function of the matrix as given.  Each sum
   is dropped on overflow; returns whether one was.  [Infeasible] on a
   negative cycle. *)
let add_at m p n s x y c : bool =
  if x = y then begin
    if c < 0L then raise Infeasible;
    false
  end
  else
    let xy = (x * n) + y in
    if has m p xy && get m xy <= c then false
    else begin
      put m p xy c;
      let { col; colv; row; rowv } = s in
      let nc = ref 0 and nr = ref 0 in
      for i = 0 to n - 1 do
        if i = x || has m p ((i * n) + x) then begin
          col.(!nc) <- i;
          Bytes.set_int64_ne colv (8 * !nc) (if i = x then 0L else get m ((i * n) + x));
          incr nc
        end;
        if i = y || has m p ((y * n) + i) then begin
          row.(!nr) <- i;
          Bytes.set_int64_ne rowv (8 * !nr) (if i = y then 0L else get m ((y * n) + i));
          incr nr
        end
      done;
      let dropped = ref false in
      for a = 0 to !nc - 1 do
        let i = col.(a) in
        let dix = Bytes.get_int64_ne colv (8 * a) in
        let dc = Int64.add dix c in
        if no_overflow dix c dc then
          for b = 0 to !nr - 1 do
            let j = row.(b) in
            let dyj = Bytes.get_int64_ne rowv (8 * b) in
            let v = Int64.add dc dyj in
            if no_overflow dc dyj v then begin
              if i <> j then relax m p ((i * n) + j) v else if v < 0L then raise Infeasible
            end
            else dropped := true
          done
        else dropped := true
      done;
      !dropped
    end

(* [add x y c t]: {!add_at} on a copy of [t] laid out over its
   variables and [x], [y].  [None] signals an infeasible state; a
   dropped sum leaves the result unclosed. *)
let add x y c t : t option =
  if x = y then if c < 0L then None else Some t
  else
    let vs = t.vs in
    let k = Array.length vs in
    let tx = index vs x and ty = index vs y in
    let xy = (tx * k) + ty in
    if tx >= 0 && ty >= 0 && has t.m (plane k) xy && get t.m xy <= c then Some t
    else
      let w = if tx >= 0 && ty >= 0 then vs else union vs (if x < y then [| x; y |] else [| y; x |]) in
      let n = Array.length w in
      let m = embed t w in
      match add_at m (plane n) n (snapshot n) (index w x) (index w y) c with
      | dropped -> Some { vs = w; m; closed = t.closed && not dropped }
      | exception Infeasible -> None

(* Floyd–Warshall in place on the n×n matrix [m], in k/i/j order over
   the positions [idx].  The zero diagonal is left implicit: the
   relaxations it would feed are no-ops, and a diagonal sum
   d(i, k) + d(k, i) is still tested.  A sum that overflows is dropped;
   a negative diagonal sum is a negative cycle: [Infeasible].  Returns
   whether any sum overflowed. *)
let floyd m p n (idx : int array) : bool =
  let nu = Array.length idx in
  let overflowed = ref false in
  for a = 0 to nu - 1 do
    let k = idx.(a) in
    for b = 0 to nu - 1 do
      let i = idx.(b) in
      let ik = (i * n) + k in
      if has m p ik then begin
        let dik = get m ik in
        for c = 0 to nu - 1 do
          let j = idx.(c) in
          let kj = (k * n) + j in
          if has m p kj then begin
            let dkj = get m kj in
            let v = Int64.add dik dkj in
            if no_overflow dik dkj v then begin
              if i <> j then relax m p ((i * n) + j) v else if v < 0L then raise Infeasible
            end
            else overflowed := true
          end
        done
      end
    done
  done;
  !overflowed

(* Constraints x - y <= c as an iterator: [adding f] calls [f x y c] on
   each, in order.  The kernel may run it more than once. *)
type adding = (int -> int -> int64 -> unit) -> unit

exception Tightens

(* The kernel behind {!close_over}: {!add} each constraint of [adding]
   in order, then run {!floyd} over the universe [u] (at least two
   variables, none repeated, in the caller's order).  [t] is laid out
   over the sorted union [w] of its variables and [u], and [idx] maps
   [u] to positions in [w].  The result is [t] plus every entry the run
   tightens; entries with an endpoint outside the universe are neither
   read nor written and pass through, which is why a non-empty
   [adding] ([strict]) needs every variable of [t] and of its own
   constraints in [u].  When [t] is closed, the adds close the matrix
   again unless one of them drops a sum, and then Floyd–Warshall has
   nothing to derive; when no add tightens anything, the result is [t]
   itself.  The result is closed when the run covered every variable
   without an overflowing sum. *)
let dense ~strict (adding : adding) (u : int array) t : t option =
  let nu = Array.length u in
  let sorted = ref true in
  for a = 1 to nu - 1 do
    if u.(a - 1) >= u.(a) then sorted := false
  done;
  let su =
    if !sorted then u
    else
      let s = Array.copy u in
      Array.sort Int.compare s;
      s
  in
  let w = union t.vs su in
  let n = Array.length w in
  if strict && n <> nu then invalid_arg "Dbm: constraint outside the universe";
  let p = plane n in
  let pos v =
    let i = index w v in
    if i < 0 then invalid_arg "Dbm: constraint outside the universe";
    i
  in
  (* the incremental adds, then a run unless [closed] holds after them *)
  let incremental ~closed m =
    let s = snapshot n in
    let dropped = ref false in
    adding (fun x y c -> if add_at m p n s (pos x) (pos y) c then dropped := true);
    let closed =
      (closed && not !dropped)
      ||
      let idx = if w == u then Array.init nu Fun.id else Array.map (fun v -> index w v) u in
      let overflowed = floyd m p n idx in
      n = nu && not overflowed
    in
    Some (normalize ~closed w m)
  in
  try
    if t.closed then begin
      (* the first add that tightens [t], if any *)
      let k = Array.length t.vs in
      let q = plane k in
      let in_t i = if n = k then i else index t.vs w.(i) in
      let tightens () =
        adding (fun x y c ->
            let x = pos x and y = pos y in
            if x = y then begin
              if c < 0L then raise Infeasible
            end
            else
              let tx = in_t x and ty = in_t y in
              let xy = (tx * k) + ty in
              if not (tx >= 0 && ty >= 0 && has t.m q xy && get t.m xy <= c) then raise Tightens);
        false
      in
      if try tightens () with Tightens -> true then incremental ~closed:true (embed t w) else Some t
    end
    else incremental ~closed:false (embed t w)
  with Infeasible -> None

(* [close_over ~adding vs t] = {!add} each constraint of [adding] in
   order, then close over the universe [vs] (callers may widen it
   beyond [vars t], e.g. with query endpoints; [vs] must not repeat a
   variable). *)
let close_in ~strict (adding : adding) (u : int array) t : t option =
  if Array.length u >= 2 then dense ~strict adding u t
  else begin
    let acc = ref (Some t) in
    adding (fun x y c -> match !acc with None -> () | Some t -> acc := add x y c t);
    !acc
  end

let close_over ?(adding = []) (vs : int list) t : t option =
  close_in
    ~strict:(match adding with [] -> false | _ :: _ -> true)
    (fun f -> List.iter (fun (x, y, c) -> f x y c) adding)
    (Array.of_list vs) t

let close_with (adding : adding) (u : int array) t : t option = close_in ~strict:true adding u t

(* Sorted intersection of two sorted variable arrays; [a] itself when
   [b] holds all of it. *)
let inter (a : int array) (b : int array) : int array =
  let pos = locate a b in
  let k = Array.fold_left (fun k j -> if j >= 0 then k + 1 else k) 0 pos in
  if k = Array.length a then a
  else begin
    let r = Array.make k 0 and o = ref 0 in
    Array.iteri
      (fun i j ->
        if j >= 0 then begin
          r.(!o) <- a.(i);
          incr o
        end)
      pos;
    r
  end

(* Pointwise max over the keys common to both sides; keys present on
   only one side join with +oo and disappear.  Sound on arbitrary
   (even unclosed) arguments; precise when both arguments are closed. *)
let join a b =
  if a == b then a
  else
    let c = inter a.vs b.vs in
    let n = Array.length c in
    if n = 0 then top
    else begin
      let ka = Array.length a.vs and kb = Array.length b.vs in
      let qa = plane ka and qb = plane kb in
      let pa = locate c a.vs and pb = locate c b.vs in
      let m = create n and p = plane n in
      for i = 0 to n - 1 do
        let ra = pa.(i) * ka and rb = pb.(i) * kb in
        for j = 0 to n - 1 do
          let ia = ra + pa.(j) and ib = rb + pb.(j) in
          if has a.m qa ia && has b.m qb ib then begin
            let x = get a.m ia and y = get b.m ib in
            put m p ((i * n) + j) (if x >= y then x else y)
          end
        done
      done;
      normalize ~closed:(a.closed && b.closed) c m
    end

(* Keep an entry of [old] only where [next] hasn't weakened it.  Keys
   shrink monotonically and kept values never change: termination. *)
let widen old next =
  let k = Array.length old.vs and kn = Array.length next.vs in
  let q = plane k and qn = plane kn in
  let pos = locate old.vs next.vs in
  let m = Bytes.copy old.m in
  let dropped = ref false in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let ij = (i * k) + j in
      if has m q ij then begin
        let pi = pos.(i) and pj = pos.(j) in
        let nij = (pi * kn) + pj in
        if not (pi >= 0 && pj >= 0 && has next.m qn nij && get next.m nij <= get m ij) then begin
          clear m q ij;
          dropped := true
        end
      end
    done
  done;
  if !dropped then normalize ~closed:false old.vs m else old

(* Keep everything [old] knows; adopt [next]'s entries on keys [old]
   dropped (typically the ones widening destroyed). *)
let narrow old next =
  if is_top next then old
  else if is_top old then next
  else begin
    let w = union old.vs next.vs in
    let n = Array.length w and kn = Array.length next.vs in
    let m = embed old w in
    let p = plane n and qn = plane kn in
    let pos = locate next.vs w in
    for i = 0 to kn - 1 do
      let row = pos.(i) * n in
      for j = 0 to kn - 1 do
        let ij = (i * kn) + j in
        if has next.m qn ij && not (has m p (row + pos.(j))) then put m p (row + pos.(j)) (get next.m ij)
      done
    done;
    { vs = w; m; closed = false }
  end

let forget v t =
  let iv = index t.vs v in
  if iv < 0 then t
  else begin
    let k = Array.length t.vs in
    let n = k - 1 in
    let q = plane k and p = plane n in
    let m = create n in
    (* position in [t] of the variable at [i] once [v] is gone *)
    let src i = if i < iv then i else i + 1 in
    for i = 0 to n - 1 do
      let row = src i * k in
      for j = 0 to n - 1 do
        let ij = row + src j in
        if has t.m q ij then put m p ((i * n) + j) (get t.m ij)
      done
    done;
    normalize ~closed:t.closed (Array.init n (fun i -> t.vs.(src i))) m
  end

(* v := v + k, exact when the concrete addition cannot wrap (the caller
   certifies that): x - v <= c becomes x - v' <= c - k, v - y <= c
   becomes v' - y <= c + k.  Entries whose shifted bound overflows are
   dropped (sound: +oo). *)
let shift v k t =
  if Int64.equal k Int64.min_int then forget v t (* -k not representable *)
  else
    let iv = index t.vs v in
    if iv < 0 then t
    else begin
      let n = Array.length t.vs in
      let p = plane n in
      let m = Bytes.copy t.m in
      let dropped = ref false in
      let move ij d =
        if has m p ij then begin
          let c = get m ij in
          let c' = Int64.add c d in
          if no_overflow c d c' then put m p ij c'
          else begin
            clear m p ij;
            dropped := true
          end
        end
      in
      let nk = Int64.neg k in
      for j = 0 to n - 1 do
        move ((iv * n) + j) k;
        move ((j * n) + iv) nk
      done;
      if !dropped then normalize ~closed:false t.vs m else { t with m }
    end

let entails_le x y c t =
  if x = y then 0L <= c else match find_opt x y t with Some c0 -> c0 <= c | None -> false

let to_string t =
  let b = Buffer.create 64 in
  fold
    (fun x y c () ->
      if Buffer.length b > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "v%d - v%d <= %Ld" x y c))
    t ();
  if Buffer.length b = 0 then "T" else Buffer.contents b

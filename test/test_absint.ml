(* lib/absint: interval algebra units, qcheck lattice laws, and
   end-to-end discharge tests (including the cases the Facts pass
   cannot prove, and a soundness case where the check must stay). *)

module Iv = Absint.Interval

let parse src = Kc.Typecheck.check_sources [ ("t.kc", src) ]

let iv = Alcotest.testable (fun fmt i -> Format.pp_print_string fmt (Iv.to_string i)) Iv.equal

(* ------------------------------------------------------------------ *)
(* Interval algebra                                                   *)
(* ------------------------------------------------------------------ *)

let test_interval_lattice () =
  let a = Iv.of_bounds 0L 10L and b = Iv.of_bounds 5L 20L in
  Alcotest.check iv "join" (Iv.of_bounds 0L 20L) (Iv.join a b);
  Alcotest.check iv "meet" (Iv.of_bounds 5L 10L) (Iv.meet a b);
  Alcotest.check iv "meet disjoint" Iv.bottom (Iv.meet (Iv.of_bounds 0L 1L) (Iv.of_bounds 5L 6L));
  Alcotest.check iv "join bot" a (Iv.join a Iv.bottom);
  Alcotest.(check bool) "leq" true (Iv.leq (Iv.meet a b) a);
  Alcotest.(check bool) "mem" true (Iv.mem 7L a);
  Alcotest.(check bool) "not mem" false (Iv.mem 11L a)

let test_interval_widen_narrow () =
  let a = Iv.of_bounds 0L 1L and b = Iv.of_bounds 0L 2L in
  (* upper bound grew: widen blows it to +oo *)
  Alcotest.check iv "widen up" (Iv.Iv (Iv.Fin 0L, Iv.Pinf)) (Iv.widen a b);
  (* stable bounds survive widening *)
  Alcotest.check iv "widen stable" a (Iv.widen a a);
  let lo = Iv.Iv (Iv.Ninf, Iv.Fin 5L) in
  Alcotest.check iv "widen down" (Iv.Iv (Iv.Ninf, Iv.Fin 5L)) (Iv.widen lo (Iv.of_bounds (-9L) 5L));
  (* narrow refines only the infinite bounds *)
  let w = Iv.Iv (Iv.Fin 0L, Iv.Pinf) in
  Alcotest.check iv "narrow" (Iv.of_bounds 0L 4L) (Iv.narrow w (Iv.of_bounds 0L 4L));
  Alcotest.check iv "narrow keeps finite" (Iv.of_bounds 0L 9L)
    (Iv.narrow (Iv.of_bounds 0L 9L) (Iv.of_bounds 0L 4L))

let test_interval_arith () =
  Alcotest.check iv "add" (Iv.of_bounds 3L 7L) (Iv.add (Iv.of_bounds 1L 2L) (Iv.of_bounds 2L 5L));
  Alcotest.check iv "sub" (Iv.of_bounds (-4L) 0L)
    (Iv.sub (Iv.of_bounds 1L 2L) (Iv.of_bounds 2L 5L));
  Alcotest.check iv "neg" (Iv.of_bounds (-2L) (-1L)) (Iv.neg (Iv.of_bounds 1L 2L));
  Alcotest.check iv "mul signs" (Iv.of_bounds (-10L) 10L)
    (Iv.mul (Iv.of_bounds (-2L) 2L) (Iv.of_bounds 0L 5L));
  (* overflow saturates instead of wrapping *)
  Alcotest.check iv "add overflow" (Iv.Iv (Iv.Fin 0L, Iv.Pinf))
    (Iv.add (Iv.of_bounds 0L Int64.max_int) (Iv.of_bounds 0L 1L));
  Alcotest.check iv "mul min_int"
    (Iv.Iv (Iv.Ninf, Iv.Pinf))
    (Iv.mul (Iv.of_bounds Int64.min_int Int64.min_int) (Iv.of_bounds (-1L) (-1L)));
  Alcotest.check iv "div" (Iv.of_bounds (-3L) 5L) (Iv.div_pos_const (Iv.of_bounds (-7L) 10L) 2L);
  Alcotest.check iv "rem nonneg" (Iv.of_bounds 0L 6L) (Iv.rem_pos_const (Iv.of_bounds 0L 100L) 7L);
  (* n & 7 is in [0,7] even when n may be negative *)
  Alcotest.check iv "band mask" (Iv.of_bounds 0L 7L)
    (Iv.band (Iv.of_bounds Int64.min_int Int64.max_int) (Iv.of_bounds 7L 7L));
  Alcotest.check iv "shl" (Iv.of_bounds 4L 8L) (Iv.shl_const (Iv.of_bounds 1L 2L) 2L);
  Alcotest.check iv "shr" (Iv.of_bounds 1L 2L) (Iv.shr_const (Iv.of_bounds 4L 8L) 2L)

(* ------------------------------------------------------------------ *)
(* qcheck lattice laws                                                *)
(* ------------------------------------------------------------------ *)

let gen_bound =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun n -> Iv.Fin (Int64.of_int n)) (int_range (-50) 50));
        (1, return Iv.Ninf);
        (1, return Iv.Pinf);
      ])

let gen_interval =
  QCheck2.Gen.(
    frequency
      [
        ( 9,
          map2
            (fun a b ->
              match (a, b) with
              | Iv.Pinf, _ | _, Iv.Ninf -> Iv.top
              | lo, hi -> if Iv.bound_le lo hi then Iv.Iv (lo, hi) else Iv.Iv (hi, lo))
            gen_bound gen_bound );
        (1, return Iv.bottom);
      ])

let gen_point = QCheck2.Gen.(map Int64.of_int (int_range (-50) 50))

let prop_join_sound =
  QCheck2.Test.make ~name:"interval join is an upper bound (gamma-sound)" ~count:500
    QCheck2.Gen.(triple gen_interval gen_interval gen_point)
    (fun (a, b, x) ->
      let j = Iv.join a b in
      ((not (Iv.mem x a)) || Iv.mem x j) && ((not (Iv.mem x b)) || Iv.mem x j))

let prop_meet_sound =
  QCheck2.Test.make ~name:"interval meet keeps common points" ~count:500
    QCheck2.Gen.(triple gen_interval gen_interval gen_point)
    (fun (a, b, x) -> (not (Iv.mem x a && Iv.mem x b)) || Iv.mem x (Iv.meet a b))

let prop_widen_upper =
  QCheck2.Test.make ~name:"widen over-approximates both arguments" ~count:500
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (a, b) ->
      let w = Iv.widen a b in
      Iv.leq a w && Iv.leq b w)

let prop_widen_stabilizes =
  QCheck2.Test.make ~name:"widening chains stabilize" ~count:500
    QCheck2.Gen.(pair gen_interval (QCheck2.Gen.list_size (QCheck2.Gen.return 8) gen_interval))
    (fun (a0, steps) ->
      (* iterate x <- widen x y over arbitrary y: each widen either
         leaves x fixed or pushes a bound to infinity, so at most two
         strict growths happen *)
      let x = ref a0 and grow = ref 0 in
      List.iter
        (fun y ->
          let x' = Iv.widen !x (Iv.join !x y) in
          if not (Iv.equal x' !x) then incr grow;
          x := x')
        steps;
      (* bot -> finite adoption, lo -> -oo, hi -> +oo *)
      !grow <= 3)

let prop_narrow_between =
  QCheck2.Test.make ~name:"narrow lands between next and old" ~count:500
    QCheck2.Gen.(pair gen_interval gen_interval)
    (fun (a, b) ->
      let old = Iv.join a b in
      (* next <= old by construction *)
      let next = a in
      let n = Iv.narrow old next in
      Iv.leq next n && Iv.leq n old)

let prop_arith_sound =
  QCheck2.Test.make ~name:"abstract add/sub/mul contain concrete results" ~count:500
    QCheck2.Gen.(
      quad gen_interval gen_interval gen_point gen_point)
    (fun (a, b, x, y) ->
      (not (Iv.mem x a && Iv.mem y b))
      || Iv.mem (Int64.add x y) (Iv.add a b)
         && Iv.mem (Int64.sub x y) (Iv.sub a b)
         && Iv.mem (Int64.mul x y) (Iv.mul a b)
         && Iv.mem (Int64.logand x y) (Iv.band a b))

(* ------------------------------------------------------------------ *)
(* qcheck zone laws                                                   *)
(* ------------------------------------------------------------------ *)

(* Random difference constraints over three program variables plus the
   distinguished zero variable, checked against concrete valuations:
   a zone means exactly the valuations satisfying every generating
   constraint, so gamma-soundness is directly testable. *)

module Zn = Absint.Zone

let gen_zvar = QCheck2.Gen.oneofl [ Zn.zero; 1; 2; 3 ]

let gen_con =
  QCheck2.Gen.(
    map3 (fun x y c -> (x, y, Int64.of_int c)) gen_zvar gen_zvar (int_range (-20) 20))

let gen_cons = QCheck2.Gen.(list_size (int_range 0 6) gen_con)

(* [None] = the constraints were already detected as infeasible. *)
let zone_of cons =
  List.fold_left
    (fun acc (x, y, c) ->
      match acc with None -> None | Some t -> Zn.add_le x y c t)
    (Some Zn.top) cons

let gen_val = QCheck2.Gen.(map Int64.of_int (int_range (-25) 25))
let gen_valuation = QCheck2.Gen.(triple gen_val gen_val gen_val)

let value_of (v1, v2, v3) x =
  if x = Zn.zero then 0L else if x = 1 then v1 else if x = 2 then v2 else v3

let sat_cons vl cons =
  List.for_all (fun (x, y, c) -> Int64.sub (value_of vl x) (value_of vl y) <= c) cons

let sat_zone vl t =
  Absint.Dbm.fold
    (fun x y c ok -> ok && Int64.sub (value_of vl x) (value_of vl y) <= c)
    t true

let prop_zone_close_idempotent =
  QCheck2.Test.make ~name:"zone closure is idempotent" ~count:500 gen_cons (fun cons ->
      match zone_of cons with
      | None -> true
      | Some t -> (
          match Zn.close_seeded Zn.no_seeds t with
          | None -> true (* infeasible caught late: fine *)
          | Some c1 -> (
              match Zn.close_seeded Zn.no_seeds c1 with
              | None -> false (* a feasible closed zone cannot become infeasible *)
              | Some c2 -> Zn.equal c1 c2)))

let prop_zone_join_sound =
  QCheck2.Test.make ~name:"zone join over-approximates both sides (gamma-sound)" ~count:500
    QCheck2.Gen.(triple gen_cons gen_cons gen_valuation)
    (fun (ca, cb, vl) ->
      match (zone_of ca, zone_of cb) with
      | Some za, Some zb ->
          let j = Zn.join za zb in
          (not (sat_cons vl ca) || sat_zone vl j)
          && (not (sat_cons vl cb) || sat_zone vl j)
      | _ -> true)

let prop_zone_widen_terminates =
  QCheck2.Test.make ~name:"zone widening chains stabilize" ~count:300
    QCheck2.Gen.(pair gen_cons (list_size (int_range 1 8) gen_cons))
    (fun (c0, steps) ->
      (* widen never adopts from its right argument and surviving
         entries keep their value, so the number of strict changes in
         a chain is bounded by the initial constraint count *)
      match zone_of c0 with
      | None -> true
      | Some z0 ->
          let changes = ref 0 and x = ref z0 in
          List.iter
            (fun cs ->
              match zone_of cs with
              | None -> ()
              | Some y ->
                  let x' = Zn.widen !x (Zn.join !x y) in
                  if not (Zn.equal x' !x) then incr changes;
                  x := x')
            steps;
          !changes <= Zn.cardinal z0)

let prop_zone_reduction_sound =
  QCheck2.Test.make ~name:"seeded closure keeps every point of the product" ~count:500
    QCheck2.Gen.(
      triple gen_cons
        (triple (pair gen_val gen_val) (pair gen_val gen_val) (pair gen_val gen_val))
        gen_valuation)
    (fun (cons, ((a1, b1), (a2, b2), (a3, b3)), vl) ->
      let mk a b = if a <= b then Iv.of_bounds a b else Iv.of_bounds b a in
      let iv1 = mk a1 b1 and iv2 = mk a2 b2 and iv3 = mk a3 b3 in
      let seeds v =
        if v = 1 then iv1 else if v = 2 then iv2 else if v = 3 then iv3 else Iv.top
      in
      match zone_of cons with
      | None -> true
      | Some t ->
          let v1, v2, v3 = vl in
          if
            not (sat_cons vl cons && Iv.mem v1 iv1 && Iv.mem v2 iv2 && Iv.mem v3 iv3)
          then true
          else (
            (* the valuation inhabits both components, so the reduced
               product must keep it: no spurious bottom, and every
               derived unary bound (what tighten_from_zone meets back
               into the intervals) still contains the point *)
            match Zn.close_seeded_in [ 1; 2; 3 ] seeds t with
            | None -> false
            | Some c ->
                sat_zone vl c
                && List.for_all
                     (fun v ->
                       let lo, hi = Zn.bounds_of v c in
                       (match lo with None -> true | Some l -> l <= value_of vl v)
                       &&
                       match hi with None -> true | Some h -> value_of vl v <= h)
                     [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Dense DBM kernel vs the sparse reference                           *)
(* ------------------------------------------------------------------ *)

(* The sparse closure and incremental add the dense kernel replaced,
   kept here verbatim as the reference: a map ordered by polymorphic
   compare, closed through a Hashtbl.  [Dbm.close_over] and [Dbm.add]
   must return exactly these maps, and [None] exactly when these do. *)
module Ref = struct
  module PM = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  module IS = Set.Make (Int)

  type t = int64 PM.t

  let bound (t : t) a b : int64 option = if a = b then Some 0L else PM.find_opt (a, b) t

  let vars (t : t) : int list =
    IS.elements (PM.fold (fun (x, y) _ acc -> IS.add x (IS.add y acc)) t IS.empty)

  let checked_add (a : int64) (b : int64) : int64 option =
    let s = Int64.add a b in
    if Int64.logxor a b >= 0L && Int64.logxor a s < 0L then None else Some s

  let checked_add3 a b c =
    match checked_add a b with None -> None | Some s -> checked_add s c

  let tighten key v (t : t) =
    match PM.find_opt key t with
    | Some c when Int64.compare c v <= 0 -> t
    | _ -> PM.add key v t

  let add x y c (t : t) : t option =
    if x = y then if Int64.compare c 0L < 0 then None else Some t
    else
      match bound t x y with
      | Some c0 when Int64.compare c0 c <= 0 -> Some t
      | _ ->
          let t = PM.add (x, y) c t in
          let vs = vars t in
          let feasible = ref true in
          let acc = ref t in
          List.iter
            (fun i ->
              match bound t i x with
              | None -> ()
              | Some dix ->
                  List.iter
                    (fun j ->
                      match bound t y j with
                      | None -> ()
                      | Some dyj -> (
                          match checked_add3 dix c dyj with
                          | None -> ()
                          | Some v ->
                              if i = j then begin
                                if Int64.compare v 0L < 0 then feasible := false
                              end
                              else acc := tighten (i, j) v !acc))
                    vs)
            vs;
          if !feasible then Some !acc else None

  let close_over (vs : int list) (t : t) : t option =
    match vs with
    | [] | [ _ ] -> Some t
    | _ ->
        let h = Hashtbl.create 64 in
        PM.iter (fun k c -> Hashtbl.replace h k c) t;
        let get i j = if i = j then Some 0L else Hashtbl.find_opt h (i, j) in
        let feasible = ref true in
        List.iter
          (fun k ->
            List.iter
              (fun i ->
                match get i k with
                | None -> ()
                | Some a ->
                    List.iter
                      (fun j ->
                        match get k j with
                        | None -> ()
                        | Some b -> (
                            match checked_add a b with
                            | None -> ()
                            | Some v ->
                                if i = j then begin
                                  if Int64.compare v 0L < 0 then feasible := false
                                end
                                else
                                  match get i j with
                                  | Some c when Int64.compare c v <= 0 -> ()
                                  | _ -> Hashtbl.replace h (i, j) v))
                      vs)
              vs)
          vs;
        if not !feasible then None
        else Some (Hashtbl.fold (fun k v acc -> PM.add k v acc) h PM.empty)

  let of_list (cons : (int * int * int64) list) : t =
    List.fold_left (fun acc (x, y, c) -> PM.add (x, y) c acc) PM.empty cons

  (* The rest of the map-backed DBM the flat one replaced, verbatim in
     meaning: lattice operations, transformers and lookups on the map. *)
  let find_opt x y (t : t) = PM.find_opt (x, y) t
  let cardinal = PM.cardinal
  let equal = PM.equal Int64.equal

  let join (a : t) (b : t) : t =
    PM.merge
      (fun _ l r ->
        match (l, r) with
        | Some x, Some y -> Some (if Int64.compare x y >= 0 then x else y)
        | _ -> None)
      a b

  let widen (old : t) (next : t) : t =
    PM.filter
      (fun k c -> match PM.find_opt k next with Some cn -> Int64.compare cn c <= 0 | None -> false)
      old

  let narrow (old : t) (next : t) : t = PM.union (fun _ c _ -> Some c) old next
  let forget v (t : t) : t = PM.filter (fun (x, y) _ -> x <> v && y <> v) t

  let shift v k (t : t) : t =
    if Int64.equal k Int64.min_int then forget v t
    else
      PM.fold
        (fun (x, y) c acc ->
          let c' =
            if x = v then checked_add c k else if y = v then checked_add c (Int64.neg k) else Some c
          in
          match c' with Some c' -> PM.add (x, y) c' acc | None -> acc)
        t PM.empty

  (* Zone.bounds_of on the map: zero is -1 *)
  let bounds_of v (t : t) =
    let hi = find_opt v (-1) t in
    let lo =
      match find_opt (-1) v t with
      | Some c when not (Int64.equal c Int64.min_int) -> Some (Int64.neg c)
      | _ -> None
    in
    (lo, hi)
end

module Dbm = Absint.Dbm

(* Raw maps, not closed and not built by [add]: each entry enters as a
   singleton and [narrow] unions them (last constraint on a key wins,
   as in [Ref.of_list]). *)
let dbm_of_list (cons : (int * int * int64) list) : Dbm.t =
  List.fold_left
    (fun acc (x, y, c) ->
      match Dbm.add x y c Dbm.top with
      | Some single -> Dbm.narrow single acc
      | None -> acc)
    Dbm.top cons

let bindings t = List.rev (Dbm.fold (fun x y c acc -> ((x, y), c) :: acc) t [])
let ref_bindings t = Ref.PM.bindings t

let same_result (got : Dbm.t option) (want : Ref.t option) =
  match (got, want) with
  | None, None -> true
  | Some g, Some w -> bindings g = ref_bindings w
  | _ -> false

let kernel_vars = [ -1; 1; 2; 3; 4; 5 ]

(* Bounds mostly small (negative cycles are common), some within a few
   units of the int64 extremes so sums overflow and are dropped. *)
let gen_kbound =
  QCheck2.Gen.(
    frequency
      [
        (6, map Int64.of_int (int_range (-8) 8));
        (1, map (fun k -> Int64.add Int64.min_int (Int64.of_int k)) (int_range 0 3));
        (1, map (fun k -> Int64.sub Int64.max_int (Int64.of_int k)) (int_range 0 3));
      ])

let gen_kcon =
  QCheck2.Gen.(
    map3
      (fun x y c -> (x, y, c))
      (oneofl kernel_vars) (oneofl kernel_vars) gen_kbound)

(* x <> y: the kernels never store a diagonal entry *)
let gen_kcons =
  QCheck2.Gen.(map (List.filter (fun (x, y, _) -> x <> y)) (list_size (int_range 0 12) gen_kcon))

(* A duplicate-free universe in random order: sometimes narrower than
   the map's variables (entries pass through), sometimes wider. *)
let gen_universe =
  QCheck2.Gen.(
    map
      (fun keyed ->
        List.map snd (List.sort compare (List.filter_map (fun (k, v) -> Option.map (fun k -> (k, v)) k) keyed)))
      (flatten_l
         (List.map
            (fun v -> map (fun k -> (k, v)) (opt ~ratio:0.8 (int_range 0 1000)))
            (kernel_vars @ [ 6; 7 ]))))

let print_case (cons, vs) =
  Printf.sprintf "cons=[%s] universe=[%s]"
    (String.concat "; " (List.map (fun (x, y, c) -> Printf.sprintf "v%d-v%d<=%Ld" x y c) cons))
    (String.concat "; " (List.map string_of_int vs))

let prop_kernel_close_over =
  QCheck2.Test.make ~name:"dense close_over = sparse reference" ~count:2000 ~print:print_case
    QCheck2.Gen.(pair gen_kcons gen_universe)
    (fun (cons, vs) -> same_result (Dbm.close_over vs (dbm_of_list cons)) (Ref.close_over vs (Ref.of_list cons)))

let prop_kernel_add =
  QCheck2.Test.make ~name:"column/row add = sparse reference" ~count:2000
    ~print:(fun (cons, (x, y, c)) -> print_case (cons @ [ (x, y, c) ], []))
    QCheck2.Gen.(pair gen_kcons gen_kcon)
    (fun (cons, (x, y, c)) -> same_result (Dbm.add x y c (dbm_of_list cons)) (Ref.add x y c (Ref.of_list cons)))

(* The fused form: adds applied in order on the dense matrix, then the
   closure, equal to folding the reference add and closing. The
   universe covers every variable, as [~adding] requires. *)
let prop_kernel_close_adding =
  QCheck2.Test.make ~name:"close_over ~adding = reference adds then close" ~count:2000
    ~print:(fun (cons, adding) -> print_case (cons @ adding, []))
    QCheck2.Gen.(pair gen_kcons gen_kcons)
    (fun (cons, adding) ->
      let vs = kernel_vars in
      let want =
        List.fold_left
          (fun acc (x, y, c) -> Option.bind acc (Ref.add x y c))
          (Some (Ref.of_list cons)) adding
      in
      same_result
        (Dbm.close_over ~adding vs (dbm_of_list cons))
        (Option.bind want (Ref.close_over vs)))

(* ------------------------------------------------------------------ *)
(* Flat DBM operations vs the map reference                           *)
(* ------------------------------------------------------------------ *)

let all_vars = kernel_vars @ [ 6; 7 ]
let con_list want = List.map (fun ((x, y), c) -> (x, y, c)) (ref_bindings want)

(* A flat result agrees with a map one: the same bindings in the same
   order, the same variables and size, every lookup and unary bound
   alike, and [Dbm.equal] to a DBM built afresh from those bindings (so
   a variable an operation left without any entry is gone from it). *)
let agrees (got : Dbm.t) (want : Ref.t) =
  bindings got = ref_bindings want
  && Dbm.vars got = Ref.vars want
  && Zn.vars got = List.filter (fun v -> v <> Zn.zero) (Ref.vars want)
  && Dbm.cardinal got = Ref.cardinal want
  && Dbm.is_top got = Ref.PM.is_empty want
  && Dbm.equal got (dbm_of_list (con_list want))
  && Zn.fold_bounds (fun v lo hi acc -> (v, lo, hi) :: acc) got []
     = List.rev
         (List.filter_map
            (fun v ->
              if
                v <> Zn.zero
                && (Ref.find_opt v Zn.zero want <> None || Ref.find_opt Zn.zero v want <> None)
              then
                let lo, hi = Ref.bounds_of v want in
                Some (v, lo, hi)
              else None)
            (Ref.vars want))
  && List.for_all
       (fun x ->
         Zn.bounds_of x got = Ref.bounds_of x want
         && List.for_all (fun y -> Dbm.find_opt x y got = Ref.find_opt x y want) all_vars)
       all_vars

(* A DBM and its map twin: raw constraints, or (when [closed] and
   feasible) their closure over every kernel variable, which is what
   join inputs are and what takes the closure shortcuts. *)
let build (cons, closed) =
  let d = dbm_of_list cons and r = Ref.of_list cons in
  if not closed then (d, r)
  else
    match (Dbm.close_over kernel_vars d, Ref.close_over kernel_vars r) with
    | Some d, Some r -> (d, r)
    | _ -> (d, r)

let gen_input = QCheck2.Gen.(pair gen_kcons bool)

let print_input (cons, closed) =
  print_case (cons, []) ^ if closed then " (closed)" else ""

let print_inputs (a, b) = print_input a ^ " / " ^ print_input b

let prop_flat_build =
  QCheck2.Test.make ~name:"flat lookups, vars, cardinal = map reference" ~count:2000
    ~print:print_input gen_input (fun input ->
      let d, r = build input in
      agrees d r)

let prop_flat_join =
  QCheck2.Test.make ~name:"flat join = map join" ~count:2000 ~print:print_inputs
    QCheck2.Gen.(pair gen_input gen_input)
    (fun (a, b) ->
      let a, ra = build a and b, rb = build b in
      agrees (Dbm.join a b) (Ref.join ra rb)
      && Dbm.union_vars a b = List.sort_uniq Int.compare (Ref.vars ra @ Ref.vars rb))

(* Both the raw form and the solver's [widen old (join old next)]. *)
let prop_flat_widen =
  QCheck2.Test.make ~name:"flat widen = map widen" ~count:2000 ~print:print_inputs
    QCheck2.Gen.(pair gen_input gen_input)
    (fun (a, b) ->
      let a, ra = build a and b, rb = build b in
      agrees (Dbm.widen a b) (Ref.widen ra rb)
      && agrees (Dbm.widen a (Dbm.join a b)) (Ref.widen ra (Ref.join ra rb)))

let prop_flat_narrow =
  QCheck2.Test.make ~name:"flat narrow = map narrow" ~count:2000 ~print:print_inputs
    QCheck2.Gen.(pair gen_input gen_input)
    (fun (a, b) ->
      let a, ra = build a and b, rb = build b in
      agrees (Dbm.narrow a b) (Ref.narrow ra rb))

let prop_flat_forget =
  QCheck2.Test.make ~name:"flat forget = map forget" ~count:2000
    ~print:(fun (i, v) -> Printf.sprintf "%s forget v%d" (print_input i) v)
    QCheck2.Gen.(pair gen_input (oneofl all_vars))
    (fun (input, v) ->
      let d, r = build input in
      agrees (Dbm.forget v d) (Ref.forget v r))

(* Offsets near the int64 extremes (min_int included) drop entries. *)
let prop_flat_shift =
  QCheck2.Test.make ~name:"flat shift = map shift" ~count:2000
    ~print:(fun (i, (v, k)) -> Printf.sprintf "%s shift v%d by %Ld" (print_input i) v k)
    QCheck2.Gen.(pair gen_input (pair (oneofl all_vars) gen_kbound))
    (fun (input, (v, k)) ->
      let d, r = build input in
      agrees (Dbm.shift v k d) (Ref.shift v k r))

(* [equal] on independent and on related pairs, where it is often true
   although the two sides were computed differently. *)
let prop_flat_equal =
  QCheck2.Test.make ~name:"flat equal = map equal" ~count:2000
    ~print:(fun (ab, v) -> Printf.sprintf "%s v%d" (print_inputs ab) v)
    QCheck2.Gen.(pair (pair gen_input gen_input) (oneofl all_vars))
    (fun ((a, b), v) ->
      let a, ra = build a and b, rb = build b in
      List.for_all
        (fun ((x, rx), (y, ry)) -> Dbm.equal x y = Ref.equal rx ry)
        [
          ((a, ra), (b, rb));
          ((Dbm.forget v a, Ref.forget v ra), (Dbm.forget v b, Ref.forget v rb));
          ((Dbm.join a b, Ref.join ra rb), (Dbm.join b a, Ref.join rb ra));
          ((Dbm.widen a b, Ref.widen ra rb), (a, ra));
          ((Dbm.shift v 0L a, Ref.shift v 0L ra), (a, ra));
          ((Dbm.narrow a b, Ref.narrow ra rb), (Dbm.narrow b a, Ref.narrow rb ra));
        ])

(* Random operation chains, as the analysis strings them, from raw
   constraints (top when there are none): the closure shortcuts rely on
   what each operation knows about its result being closed, so every
   prefix must still agree. *)
type op =
  | Add of (int * int * int64)
  | Forget of int
  | Shift of int * int64
  | Join of (int * int * int64) list
  | Widen of (int * int * int64) list
  | Narrow of (int * int * int64) list
  | Close
  | Close_in of int list
  | Close_adding of (int * int * int64) list
  | Close_with of (int * int * int64) list

let print_op = function
  | Add (x, y, c) -> Printf.sprintf "add v%d-v%d<=%Ld" x y c
  | Forget v -> Printf.sprintf "forget v%d" v
  | Shift (v, k) -> Printf.sprintf "shift v%d %Ld" v k
  | Join cons -> "join " ^ print_case (cons, [])
  | Widen cons -> "widen " ^ print_case (cons, [])
  | Narrow cons -> "narrow " ^ print_case (cons, [])
  | Close -> "close"
  | Close_in vs -> "close in " ^ print_case ([], vs)
  | Close_adding cons -> "close adding " ^ print_case (cons, [])
  | Close_with cons -> "close with " ^ print_case (cons, [])

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun c -> Add c) gen_kcon);
        (1, map (fun v -> Forget v) (oneofl kernel_vars));
        (1, map2 (fun v k -> Shift (v, k)) (oneofl kernel_vars) gen_kbound);
        (2, map (fun c -> Join c) gen_kcons);
        (1, map (fun c -> Widen c) gen_kcons);
        (1, map (fun c -> Narrow c) gen_kcons);
        (2, return Close);
        (1, map (fun vs -> Close_in vs) gen_universe);
        (3, map (fun c -> Close_adding c) gen_kcons);
        (2, map (fun c -> Close_with c) gen_kcons);
      ])

let step (d, r) = function
  | Add (x, y, c) -> (Dbm.add x y c d, Ref.add x y c r)
  | Forget v -> (Some (Dbm.forget v d), Some (Ref.forget v r))
  | Shift (v, k) -> (Some (Dbm.shift v k d), Some (Ref.shift v k r))
  | Join cons ->
      let o, ro = build (cons, true) in
      (Some (Dbm.join d o), Some (Ref.join r ro))
  | Widen cons ->
      let o, ro = build (cons, true) in
      (Some (Dbm.widen d (Dbm.join d o)), Some (Ref.widen r (Ref.join r ro)))
  | Narrow cons ->
      let o, ro = build (cons, false) in
      (Some (Dbm.narrow d o), Some (Ref.narrow r ro))
  | Close -> (Dbm.close_over kernel_vars d, Ref.close_over kernel_vars r)
  | Close_in vs -> (Dbm.close_over vs d, Ref.close_over vs r)
  | Close_adding cons ->
      let want = List.fold_left (fun acc (x, y, c) -> Option.bind acc (Ref.add x y c)) (Some r) cons in
      (Dbm.close_over ~adding:cons kernel_vars d, Option.bind want (Ref.close_over kernel_vars))
  | Close_with cons ->
      let want = List.fold_left (fun acc (x, y, c) -> Option.bind acc (Ref.add x y c)) (Some r) cons in
      ( Dbm.close_with
          (fun f -> List.iter (fun (x, y, c) -> f x y c) cons)
          (Array.of_list kernel_vars) d,
        Option.bind want (Ref.close_over kernel_vars) )

let prop_flat_chains =
  QCheck2.Test.make ~name:"flat operation chains = map reference" ~count:2000
    ~print:(fun (cons, ops) ->
      String.concat "; " (("start " ^ print_case (cons, [])) :: List.map print_op ops))
    QCheck2.Gen.(pair gen_kcons (list_size (int_range 1 10) gen_op))
    (fun (cons, ops) ->
      let rec go state = function
        | [] -> true
        | op :: rest -> (
            match step state op with
            | Some d, Some r -> agrees d r && go (d, r) rest
            | None, None -> true
            | _ -> false)
      in
      go (build (cons, false)) ops)

(* ------------------------------------------------------------------ *)
(* End-to-end discharge                                               *)
(* ------------------------------------------------------------------ *)

let deputize_discharge src =
  let prog = parse src in
  let report = Deputy.Dreport.deputize prog in
  let stats = Absint.Discharge.run prog in
  (prog, report, stats)

(* Masked index: Facts cannot bound [n & 7], intervals can. *)
let test_discharge_mask () =
  let src =
    "long f(int n) { long a[8]; int k = n & 7; a[k] = 5; return a[k]; }\n\
     int main(void) { return f(42); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check bool) "facts left residual checks" true (Absint.Discharge.checks_seen stats > 0);
  Alcotest.(check int) "absint proves all residual checks in f"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  (* semantics preserved *)
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "still computes" 5L (Vm.Interp.run t "main" [])

(* Loop-carried index: needs widening at the loop head, then the
   branch refinement i < 4 inside the body. *)
let test_discharge_loop () =
  let src =
    "int f(void) { long a[4]; int i = 0; long s = 0;\n\
    \  while (i < 4) { a[i] = i; s = s + a[i]; i = i + 1; }\n\
    \  return s; }\n\
     int main(void) { return f(); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check int) "loop body checks all proved"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "sum preserved" 6L (Vm.Interp.run t "main" [])

(* Soundness: a genuine out-of-bounds loop keeps its upper check and
   the VM still traps. *)
let test_discharge_keeps_real_oob () =
  let src =
    "int main(void) { long a[4]; int i = 0;\n\
    \  while (i <= 4) { a[i] = i; i = i + 1; }\n\
    \  return 0; }\n"
  in
  let prog, _report, _stats = deputize_discharge src in
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "main" [] with
  | _ -> Alcotest.fail "out-of-bounds write was not caught"
  | exception Vm.Trap.Trap (Vm.Trap.Check_failed, _) -> ()

(* Soundness: bounds proven about a sub-64 signed->unsigned cast must
   not be attributed to the pre-cast variable.  The guard is always
   true at runtime ((unsigned short)sc zero-extends the negative sc to
   a large u16), yet sc itself stays negative, so the lower-bound
   check must survive both the Facts and the absint discharge and the
   deputized VM must trap. *)
let test_discharge_keeps_cast_oob () =
  let src =
    "long f(int n) { long a[4]; signed char sc = n - 9;\n\
    \  if ((unsigned short)sc < 65535) { a[sc] = 1; }\n\
    \  return 0; }\n\
     int main(void) { return f(3); }\n"
  in
  let prog, _report, _stats = deputize_discharge src in
  let t = Vm.Builtins.boot prog in
  match Vm.Interp.run t "main" [] with
  | v -> Alcotest.failf "negative index slipped through (returned %Ld)" v
  | exception Vm.Trap.Trap (Vm.Trap.Check_failed, _) -> ()

(* Interprocedural summary: the callee's constant return bounds the
   caller's index. *)
let test_discharge_summary () =
  let src =
    "int cap(void) { return 3; }\n\
     long g(int n) { long a[4]; int k = cap(); a[k] = n; return a[k]; }\n\
     int main(void) { return g(7); }\n"
  in
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check int) "summary proves the call-site index"
    (Absint.Discharge.checks_seen stats)
    (Absint.Discharge.checks_proved stats);
  let t = Vm.Builtins.boot prog in
  Alcotest.(check int64) "result preserved" 7L (Vm.Interp.run t "main" [])

(* Falling off the end of [pick] returns 0 in the VM, so its summary
   must hold 0 and [pick(c) - 1] may be -1: the lower-bound check stays
   and traps, as under the full Deputy run. *)
let test_summary_fall_off () =
  let src =
    "long pick(long c) { if (c) { return 1; } }\n\
     long f(long c) { long a[2]; a[0] = 7; a[1] = 9; return a[pick(c) - 1]; }\n\
     long main(void) { return f(0); }\n"
  in
  let pick = Absint.Transfer.SM.find "pick" (Absint.Summary.compute (parse src)) in
  Alcotest.(check bool)
    (Printf.sprintf "pick's summary %s holds 0" (Absint.Aval.to_string pick))
    true
    (Absint.Aval.leq (Absint.Aval.of_const 0L) pick);
  let prog, _report, stats = deputize_discharge src in
  Alcotest.(check bool) "a check stays" true
    (Absint.Discharge.checks_proved stats < Absint.Discharge.checks_seen stats);
  match Vm.Interp.run (Vm.Builtins.boot prog) "main" [] with
  | v -> Alcotest.failf "deputized run returned %Ld instead of trapping" v
  | exception Vm.Trap.Trap _ -> ()

(* On the synthetic kernel corpus, Facts+absint discharges strictly
   more than Facts alone (which left these residual checks behind). *)
let test_corpus_strictly_more () =
  let prog = Kernel.Corpus.load () in
  ignore (Deputy.Dreport.deputize prog);
  let stats = Absint.Discharge.run prog in
  Alcotest.(check bool) "absint proves residual corpus checks" true
    (Absint.Discharge.checks_proved stats > 0);
  Alcotest.(check bool) "but not by emptying the program" true
    (Absint.Discharge.checks_proved stats < Absint.Discharge.checks_seen stats)

(* The deputized VM executes strictly fewer dynamic checks with the
   absint stage on (instrumentation counters). *)
let test_fewer_dynamic_checks () =
  let checks_run discharge =
    let prog = Kernel.Workloads.load ~fresh:true () in
    ignore (Deputy.Dreport.deputize prog);
    if discharge then ignore (Absint.Discharge.run prog);
    let t = Vm.Builtins.boot prog in
    ignore (Vm.Interp.run t Kernel.Corpus.boot_entry []);
    ignore (Vm.Interp.run t (Kernel.Workloads.find_row "bw_mem_cp").Kernel.Workloads.entry [ 3L ]);
    t.Vm.Interp.m.Vm.Machine.cost.Vm.Cost.checks_executed
  in
  let facts_only = checks_run false and with_absint = checks_run true in
  Alcotest.(check bool)
    (Printf.sprintf "boot executes fewer checks (%d < %d)" with_absint facts_only)
    true
    (with_absint < facts_only)

(* ------------------------------------------------------------------ *)
(* Allocation fence                                                   *)
(* ------------------------------------------------------------------ *)

(* Discharge over the deputized corpus (one domain, so the count is
   deterministic) allocates the flat DBM copies and the product states:
   4.20 M minor words when this fence was set.  The map-backed DBM it
   replaced, which loaded the map into a matrix and rebuilt it on every
   closure and folded the whole map on every add, took 7.74 M. *)
let discharge_alloc_fence = 5.0e6

let test_discharge_alloc () =
  let prog = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize prog);
  let w0 = Gc.minor_words () in
  ignore (Absint.Discharge.run prog);
  let words = Gc.minor_words () -. w0 in
  if words > discharge_alloc_fence then
    Alcotest.failf "discharge over the corpus took %.2f M minor words (fence: %.2f M)" (words /. 1e6)
      (discharge_alloc_fence /. 1e6)

(* ------------------------------------------------------------------ *)
(* Demand-driven summaries and discharge                              *)
(* ------------------------------------------------------------------ *)

let deputized_copy prog =
  let p = Kc.Ir.copy_program prog in
  ignore (Deputy.Dreport.deputize p);
  p

module SM = Absint.Transfer.SM

(* On [prog]: the summaries demanded by the residual-check functions
   equal the full ones and cover every defined direct callee of a
   root, and discharge over them reports the same per-function
   statistics as over the full summaries. Returns (demanded, full)
   summary counts. *)
let check_demand_equivalence label (prog : Kc.Ir.program) : int * int =
  let roots = Absint.Discharge.residual_roots (deputized_copy prog) in
  let full = Absint.Summary.compute prog in
  let demanded = Absint.Summary.compute ~roots prog in
  SM.iter
    (fun f v ->
      match SM.find_opt f full with
      | Some w when Absint.Aval.equal v w -> ()
      | Some w ->
          Alcotest.failf "%s: demanded summary of %s is %s, full is %s" label f
            (Absint.Aval.to_string v) (Absint.Aval.to_string w)
      | None -> Alcotest.failf "%s: demanded %s has no full summary" label f)
    demanded;
  List.iter
    (fun r ->
      let fd = Option.get (Kc.Ir.find_fun prog r) in
      List.iter
        (fun callee ->
          match Kc.Ir.find_fun prog callee with
          | Some cfd when (not cfd.Kc.Ir.fextern) && not (SM.mem callee demanded) ->
              Alcotest.failf "%s: callee %s of root %s not demanded" label callee r
          | _ -> ())
        (Absint.Summary.direct_callees fd))
    roots;
  let fstats (st : Absint.Discharge.stats) =
    List.filter (fun (s : Absint.Discharge.fstat) -> s.Absint.Discharge.seen > 0) st.Absint.Discharge.fstats
  in
  let with_full =
    let p = deputized_copy prog in
    Absint.Discharge.run ~summaries:(Absint.Summary.compute p) p
  in
  let with_demanded = Absint.Discharge.run (deputized_copy prog) in
  Alcotest.(check bool) (label ^ ": identical fstats for every function with checks") true
    (fstats with_full = fstats with_demanded);
  (SM.cardinal demanded, SM.cardinal full)

let test_demand_corpus () =
  let demanded, full = check_demand_equivalence "corpus" (Kernel.Workloads.load ~fresh:true ()) in
  Alcotest.(check bool)
    (Printf.sprintf "corpus demands a strict subset (%d of %d)" demanded full)
    true (demanded < full)

let test_demand_generated () =
  for i = 0 to 11 do
    let src = Gen.Prog.render (Gen.Fuzz.case_program ~seed:5 i) in
    ignore (check_demand_equivalence (Printf.sprintf "gen case %d" i) (parse src))
  done

(* Functions without a residual check run no fixpoint; the stats table
   says so instead of printing counts for a fixpoint that never ran. *)
let test_stats_skip_marker () =
  let prog =
    deputized_copy
      (parse
         "int idle(int x) { return x + 1; }\n\
          int pick(int * __count(4) b, int i) { return b[i & 3]; }\n")
  in
  let stats = Absint.Discharge.run prog in
  let row name =
    List.find
      (fun l -> String.length l > 0 && List.hd (String.split_on_char ' ' l) = name)
      (String.split_on_char '\n' (Absint.Discharge.render_stats stats))
  in
  let cols l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  Alcotest.(check (list string)) "idle: no fixpoint" [ "idle"; "0"; "0"; "-"; "-" ] (cols (row "idle"));
  Alcotest.(check bool) "pick: fixpoint counts" true
    (match cols (row "pick") with
    | [ _; seen; _; iters; _ ] -> seen <> "0" && iters <> "-"
    | _ -> false)

(* ---- the domain is part of the ifaces value ---------------------- *)

(* The checks left in a program's bodies. *)
let residual_checks (p : Kc.Ir.program) : Kc.Ir.instr list =
  let acc = ref [] in
  List.iter
    (fun (fd : Kc.Ir.fundec) ->
      Kc.Ir.iter_instrs
        (fun i -> match i with Kc.Ir.Icheck _ -> acc := i :: !acc | _ -> ())
        fd.Kc.Ir.fbody)
    p.Kc.Ir.funcs;
  !acc

(* On the deputized corpus+workloads unit (as [bench --absint-wall]
   builds it), discharge under [Transfer.interval_only] credits no
   relational proof, and every check it proves the product proves too.
   Both arms' counts are pinned: these are the figures the environment
   switch the value replaced produced. *)
let test_interval_only_arm () =
  let base = Kernel.Workloads.load ~fresh:true () in
  ignore (Deputy.Dreport.deputize ~optimize:true base);
  let run ifaces =
    let p = Kc.Ir.copy_program base in
    let st = Absint.Discharge.run ~ifaces p in
    ( Absint.Discharge.
        (checks_seen st, checks_proved st, checks_proved_iv st, checks_proved_rel st),
      residual_checks p )
  in
  let counts = Alcotest.(pair (pair int int) (pair int int)) in
  let pairs (a, b, c, d) = ((a, b), (c, d)) in
  let product, product_left = run Absint.Transfer.no_ifaces in
  let interval, interval_left = run Absint.Transfer.interval_only in
  Alcotest.check counts "product: seen, proved, interval, relational" ((80, 37), (33, 4))
    (pairs product);
  Alcotest.check counts "interval-only: seen, proved, interval, relational" ((80, 29), (29, 0))
    (pairs interval);
  Alcotest.(check bool) "every check interval-only proves, the product proves" true
    (List.for_all (fun c -> List.memq c interval_left) product_left)

(* A leaf's key has no callee part, so only the zone flag in
   [Summary.inputs] tells its two solves apart: one memo shared by a
   product and an interval-only computation must give each its own
   domain's summary. [leaf] returns [a] in [0,50] only through the
   zone ([a <= b <= 50]); intervals alone keep [0,100]. *)
let test_shared_memo_keys_domain () =
  let prog =
    parse
      "long leaf(long a, long b) { if (a < 0) return 0; if (a > 100) return 0; if (b < a) \
       return 0; if (b > 50) return 0; return a; }\n"
  in
  let cache = Hashtbl.create 4 and solves = ref 0 in
  let memo (fd : Kc.Ir.fundec) ~inputs solve =
    let key = (fd.Kc.Ir.fname, inputs) in
    match Hashtbl.find_opt cache key with
    | Some v -> Lazy.from_val v
    | None ->
        incr solves;
        let v = solve () in
        Hashtbl.replace cache key v;
        Lazy.from_val v
  in
  let leaf memo ifaces =
    Absint.Aval.to_string (SM.find "leaf" (Absint.Summary.compute ~ifaces ~memo prog))
  in
  let fresh = Absint.Summary.no_memo in
  let product = Absint.Transfer.no_ifaces and interval = Absint.Transfer.interval_only in
  Alcotest.(check string) "product through the memo" (leaf fresh product) (leaf memo product);
  Alcotest.(check string) "interval-only through the same memo" (leaf fresh interval)
    (leaf memo interval);
  Alcotest.(check bool) "the domains disagree on the leaf" true
    (leaf fresh product <> leaf fresh interval);
  ignore (leaf memo product);
  Alcotest.(check int) "one solve per domain" 2 !solves

let () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 42)
    | None -> 42
  in
  Printf.printf "qcheck seed: %d (set QCHECK_SEED to override)\n%!" seed;
  let rand = Random.State.make [| seed |] in
  Alcotest.run "absint"
    [
      ( "interval",
        [
          Alcotest.test_case "lattice ops" `Quick test_interval_lattice;
          Alcotest.test_case "widen/narrow" `Quick test_interval_widen_narrow;
          Alcotest.test_case "arithmetic" `Quick test_interval_arith;
        ] );
      ( "qcheck",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_join_sound;
            prop_meet_sound;
            prop_widen_upper;
            prop_widen_stabilizes;
            prop_narrow_between;
            prop_arith_sound;
          ] );
      ( "qcheck-zone",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_zone_close_idempotent;
            prop_zone_join_sound;
            prop_zone_widen_terminates;
            prop_zone_reduction_sound;
          ] );
      ( "qcheck-dbm",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [ prop_kernel_close_over; prop_kernel_add; prop_kernel_close_adding ] );
      ( "qcheck-flat",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_flat_build;
            prop_flat_join;
            prop_flat_widen;
            prop_flat_narrow;
            prop_flat_forget;
            prop_flat_shift;
            prop_flat_equal;
            prop_flat_chains;
          ] );
      ( "discharge",
        [
          Alcotest.test_case "masked index" `Quick test_discharge_mask;
          Alcotest.test_case "loop-carried index" `Quick test_discharge_loop;
          Alcotest.test_case "keeps real OOB" `Quick test_discharge_keeps_real_oob;
          Alcotest.test_case "keeps OOB behind unsigned cast guard" `Quick
            test_discharge_keeps_cast_oob;
          Alcotest.test_case "interprocedural summary" `Quick test_discharge_summary;
          Alcotest.test_case "summary holds the fall-off return" `Quick test_summary_fall_off;
          Alcotest.test_case "corpus: strictly more than Facts" `Quick test_corpus_strictly_more;
          Alcotest.test_case "corpus: fewer dynamic checks" `Quick test_fewer_dynamic_checks;
          Alcotest.test_case "stats: skipped functions" `Quick test_stats_skip_marker;
          Alcotest.test_case "corpus: allocation fence" `Quick test_discharge_alloc;
        ] );
      ( "demand",
        [
          Alcotest.test_case "corpus: demanded = full" `Quick test_demand_corpus;
          Alcotest.test_case "generated: demanded = full" `Quick test_demand_generated;
        ] );
      ( "domain",
        [
          Alcotest.test_case "corpus: interval-only arm" `Quick test_interval_only_arm;
          Alcotest.test_case "shared memo keys the domain" `Quick test_shared_memo_keys_domain;
        ] );
    ]

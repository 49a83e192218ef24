(* Abstract transfer functions over the KC IR, mirroring the VM's
   concrete semantics (lib/vm/interp.ml) operation for operation:

   - every operation result is normed to its static type's width; the
     abstract counterpart is [clamp], which keeps a computed interval
     only when it provably fits the type range and otherwise falls
     back to the whole range (never [meet]: meeting would be unsound
     under wrap-around);
   - binops pick signed/unsigned semantics from the *left* operand's
     type. Intervals bound raw (post-norm) int64 representations, so
     signed reasoning about an unsigned comparison is only sound when
     no representation can be negative — which, post-norm, can only
     happen at width 8. [cmp_refinable] encodes that guard;
   - Deputy checks (Ck_le/Ck_lt) trap on *raw signed 64-bit* compares
     regardless of source types, so proving or assuming a check needs
     no sign guard at all.

   Facts are tracked for "stable" variables only (Facts.stable: locals
   and formals whose address is never taken), which is what makes
   calls and stores through pointers harmless to the environment. *)

module I = Kc.Ir
module A = Kc.Ast

module SM = Map.Make (String)

(* Interprocedural function summaries: name -> abstract return value. *)
type summaries = Aval.t SM.t

let no_summaries : summaries = SM.empty

(* What the relational layer contributes to a solve: whether the zone
   component runs at all. One value feeds summaries and discharge
   alike, so the two cannot disagree on the domain. A callee's
   nullness comes from its summary alone. *)
type ifaces = { zone : bool }

let no_ifaces = { zone = true }
let interval_only = { zone = false }

let is_signed = function I.Tint (_, A.Signed) -> true | _ -> false

let ty_range : I.ty -> Interval.t = function
  | I.Tint (k, s) ->
      let w = Kc.Layout.int_size k in
      if w >= 8 then Interval.top
      else if s = A.Signed then
        let half = Int64.shift_left 1L ((8 * w) - 1) in
        Interval.of_bounds (Int64.neg half) (Int64.sub half 1L)
      else Interval.of_bounds 0L (Int64.sub (Int64.shift_left 1L (8 * w)) 1L)
  | _ -> Interval.top

let of_ty ty = Aval.make (ty_range ty) Nullness.top

(* Abstract counterpart of the VM's [norm]: if the computed interval
   fits the type's representable range the operation cannot wrap and
   the interval is exact; otherwise some input may wrap, and the only
   sound answer is the whole range (meet would cut off the wrapped
   values). Zero norms to zero at every width, so [Null] survives. *)
let clamp ty iv = if Interval.leq iv (ty_range ty) then iv else ty_range ty

let norm_aval ty (v : Aval.t) : Aval.t =
  if Interval.leq v.Aval.iv (ty_range ty) then Aval.reduce v
  else
    Aval.reduce
      (Aval.make (ty_range ty)
         (if Nullness.equal v.Aval.nl Nullness.Null then Nullness.Null else Nullness.top))

(* Truthiness of an abstract value ("is it nonzero?"). *)
let truthiness (v : Aval.t) : bool option =
  if Aval.is_bot v then None
  else if Nullness.equal v.Aval.nl Nullness.Null || Interval.equal v.Aval.iv (Interval.const 0L)
  then Some false
  else if Nullness.equal v.Aval.nl Nullness.Nonnull || not (Interval.contains_zero v.Aval.iv)
  then Some true
  else None

(* Signed ordering between interval bounds decides comparisons. *)
let cmp_decide op (a : Interval.t) (b : Interval.t) : bool option =
  match (a, b) with
  | Interval.Bot, _ | _, Interval.Bot -> None
  | Interval.Iv (alo, ahi), Interval.Iv (blo, bhi) -> (
      let le x y = Interval.bound_le x y in
      let lt x y = le x y && not (le y x) in
      match op with
      | A.Lt -> if lt ahi blo then Some true else if le bhi alo then Some false else None
      | A.Le -> if le ahi blo then Some true else if lt bhi alo then Some false else None
      | A.Gt -> if lt bhi alo then Some true else if le ahi blo then Some false else None
      | A.Ge -> if le bhi alo then Some true else if lt ahi blo then Some false else None
      | _ -> None)

let bool_interval = Interval.of_bounds 0L 1L
let abool = function
  | Some true -> Aval.of_const 1L
  | Some false -> Aval.of_const 0L
  | None -> Aval.make bool_interval Nullness.top

(* Is refining this source-level comparison with signed interval
   reasoning sound? Yes when the VM compares signed (left operand's
   type), or when neither side can have a negative representation. *)
let cmp_refinable (ea : I.exp) (va : Aval.t) (vb : Aval.t) =
  is_signed ea.I.ety || (Interval.is_nonneg va.Aval.iv && Interval.is_nonneg vb.Aval.iv)

let stable_var (e : I.exp) : I.varinfo option = Deputy.Facts.as_stable_var e

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

let rec eval (env : Env.t) (e : I.exp) : Aval.t =
  match e.I.e with
  | I.Econst n -> Aval.of_const n
  | I.Estr _ | I.Efun _ -> Aval.nonnull
  | I.Eaddrof _ | I.Estartof _ -> Aval.nonnull
  | I.Elval (I.Lvar v, []) when Deputy.Facts.stable v -> (
      match Env.find_opt v.I.vid env with Some a -> a | None -> of_ty v.I.vty)
  | I.Elval _ -> of_ty e.I.ety
  | I.Ecast (ty, e1) -> norm_aval ty (eval env e1)
  | I.Eunop (op, e1) -> eval_unop env e.I.ety op e1
  | I.Ebinop (op, a, b) -> eval_binop env e.I.ety op a b
  | I.Econd (c, t, f) -> (
      (* norm the decided branch too: its static type may differ from
         the Econd's, and the VM norms the selected value to e.ety *)
      match truthiness (eval env c) with
      | Some true -> norm_aval e.I.ety (eval env t)
      | Some false -> norm_aval e.I.ety (eval env f)
      | None -> norm_aval e.I.ety (Aval.join (eval env t) (eval env f)))
  | I.Eself_field _ -> of_ty e.I.ety

and eval_unop env rty op e1 =
  let v = eval env e1 in
  match op with
  | A.Neg ->
      (* -x = 0 iff x = 0 (two's complement: -min_int = min_int <> 0) *)
      norm_aval rty (Aval.make (Interval.neg v.Aval.iv) v.Aval.nl)
  | A.Lognot -> abool (match truthiness v with Some b -> Some (not b) | None -> None)
  | A.Bitnot ->
      (* ~x = -1 - x *)
      norm_aval rty (Aval.make (Interval.sub (Interval.const (-1L)) v.Aval.iv) Nullness.top)

and eval_binop env rty op (ea : I.exp) (eb : I.exp) =
  if I.is_pointer ea.I.ety then
    (* Pointer arithmetic scales by the element size (which needs the
       program's layout); pointer compares follow the integer path. *)
    match op with
    | A.Add | A.Sub -> of_ty rty
    | _ -> eval_int_binop env rty op ea eb
  else eval_int_binop env rty op ea eb

and eval_int_binop env rty op ea eb =
  let va = eval env ea and vb = eval env eb in
  let ia = va.Aval.iv and ib = vb.Aval.iv in
  let signed = is_signed ea.I.ety in
  let nonneg_ok = signed || Interval.is_nonneg ia in
  let arith iv = norm_aval rty (Aval.make iv Nullness.top) in
  match op with
  | A.Add -> arith (Interval.add ia ib)
  | A.Sub -> arith (Interval.sub ia ib)
  | A.Mul -> arith (Interval.mul ia ib)
  | A.Div -> (
      match Deputy.Facts.as_const eb with
      | Some k when k > 0L && nonneg_ok -> arith (Interval.div_pos_const ia k)
      | _ -> of_ty rty)
  | A.Mod -> (
      match Deputy.Facts.as_const eb with
      | Some k when k > 0L && nonneg_ok -> arith (Interval.rem_pos_const ia k)
      | _ -> of_ty rty)
  | A.Shl -> (
      match Deputy.Facts.as_const eb with
      | Some k -> arith (Interval.shl_const ia (Int64.logand k 63L))
      | None -> of_ty rty)
  | A.Shr -> (
      match Deputy.Facts.as_const eb with
      | Some k when nonneg_ok -> arith (Interval.shr_const ia (Int64.logand k 63L))
      | _ -> of_ty rty)
  | A.Bitand -> arith (Interval.band ia ib) (* sign-independent; band guards itself *)
  | A.Bitor ->
      if Interval.is_nonneg ia && Interval.is_nonneg ib then arith (Interval.bor ia ib)
      else of_ty rty
  | A.Bitxor ->
      if Interval.is_nonneg ia && Interval.is_nonneg ib then arith (Interval.bxor ia ib)
      else of_ty rty
  | A.Lt | A.Le | A.Gt | A.Ge ->
      if cmp_refinable ea va vb then abool (cmp_decide op ia ib) else abool None
  | A.Eq ->
      (* raw 64-bit equality, sign-independent *)
      if Aval.is_bot (Aval.meet va vb) then abool (Some false)
      else (
        match (ia, ib) with
        | Interval.Iv (Interval.Fin x, Interval.Fin x'), Interval.Iv (Interval.Fin y, Interval.Fin y')
          when x = x' && y = y' ->
            abool (Some (x = y))
        | _ -> abool None)
  | A.Ne ->
      if Aval.is_bot (Aval.meet va vb) then abool (Some true)
      else (
        match (ia, ib) with
        | Interval.Iv (Interval.Fin x, Interval.Fin x'), Interval.Iv (Interval.Fin y, Interval.Fin y')
          when x = x' && y = y' ->
            abool (Some (x <> y))
        | _ -> abool None)
  | A.Logand -> (
      match (truthiness va, truthiness vb) with
      | Some false, _ | _, Some false -> abool (Some false)
      | Some true, Some true -> abool (Some true)
      | _ -> abool None)
  | A.Logor -> (
      match (truthiness va, truthiness vb) with
      | Some true, _ | _, Some true -> abool (Some true)
      | Some false, Some false -> abool (Some false)
      | _ -> abool None)

(* ------------------------------------------------------------------ *)
(* Linear decomposition for the zone component                        *)
(* ------------------------------------------------------------------ *)

(* [a + b] / [a - b] over int64, [None] on overflow. *)
let checked_add (a : int64) (b : int64) : int64 option =
  let s = Int64.add a b in
  if Int64.logxor a b >= 0L && Int64.logxor a s < 0L then None else Some s

let checked_sub (a : int64) (b : int64) : int64 option =
  if Int64.equal b Int64.min_int then if a < 0L then Some (Int64.sub a b) else None
  else checked_add a (Int64.neg b)

let finite = function Interval.Iv (Interval.Fin _, Interval.Fin _) -> true | _ -> false

(* Raw-exact linear view of [e]: [Some (v, k)] means the raw post-norm
   int64 value of [e] equals [raw(v) + k] in every concrete state the
   environment describes. This is what licenses a zone constraint, so
   the decomposition must survive the VM's norm at every step:

   - widening casts are representation-preserving for free
     (Deputy.Annot.strip_widening, the PR 3 discipline) — handled by
     [stable_var];
   - any other cast is the identity only when the operand's interval
     proves the value fits the target range;
   - [w +- k] is exact only with an interval certificate that the
     computed interval is finite (no int64 saturation) and fits the
     expression's static type (no wrap under norm). Anything else
     havocs. *)
let rec linear_of_exp (env : Env.t) (e : I.exp) : (I.varinfo * int64) option =
  match stable_var e with
  | Some v -> Some (v, 0L)
  | None -> (
      match e.I.e with
      | I.Ecast (ty, e1) ->
          if Interval.leq (eval env e1).Aval.iv (ty_range ty) then linear_of_exp env e1
          else None
      | I.Ebinop ((A.Add | A.Sub) as op, a, b) -> (
          let term, k =
            match (op, Deputy.Facts.as_const a, Deputy.Facts.as_const b) with
            | _, _, Some kb -> (Some a, Some (if op = A.Sub then Int64.neg kb else kb))
            | A.Add, Some ka, _ -> (Some b, Some ka)
            | _ -> (None, None)
          in
          match (term, k) with
          | Some t, Some k when not (Int64.equal k Int64.min_int) || op <> A.Sub -> (
              let iv = Interval.add (eval env t).Aval.iv (Interval.const k) in
              if finite iv && Interval.leq iv (ty_range e.I.ety) then
                match linear_of_exp env t with
                | Some (v, k0) -> (
                    match checked_add k0 k with Some k' -> Some (v, k') | None -> None)
                | None -> None
              else None)
          | _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Zone transfer                                                      *)
(* ------------------------------------------------------------------ *)

(* Record [x - y <= c] and pull derived unary bounds back into the
   interval component.  An infeasible constraint system makes the
   state [Unreachable]. *)
let zone_add_le x y c env =
  Env.tighten_from_zone (Env.map_zone (Zone.add_le x y c) env)

(* Kill a variable's zone constraints, first closing with interval
   seeds so derived consequences survive (e.g. the lower bound a
   clamped copy proved about its source). *)
let zone_kill (v : I.varinfo) env =
  match Env.zone env with
  | Some z when not (Zone.is_top z) ->
      Env.map_zone (fun z -> Some (Zone.forget v.I.vid z)) (Env.close env)
  | _ -> env

(* Relational refinement under raw [ea op eb] ([op] is Le or Lt): add
   the difference constraint when both sides decompose raw-exactly. *)
let relational_cmp ifaces op (ea : I.exp) (eb : I.exp) env =
  if (not ifaces.zone) || Env.is_unreachable env then env
  else
    let strict = match op with A.Lt -> true | _ -> false in
    let minus_strict c = if strict then checked_sub c 1L else Some c in
    match (linear_of_exp env ea, linear_of_exp env eb) with
    | Some (va, ka), Some (vb, kb) when va.I.vid <> vb.I.vid -> (
        (* raw(va) + ka <= raw(vb) + kb (- strict) *)
        match Option.bind (checked_sub kb ka) minus_strict with
        | Some c -> zone_add_le va.I.vid vb.I.vid c env
        | None -> env)
    | Some (_, ka), Some (_, kb) (* same variable *) -> (
        match Option.bind (checked_sub kb ka) minus_strict with
        | Some c -> if Int64.compare 0L c <= 0 then env else Env.bottom
        | None -> env)
    | Some (va, ka), None -> (
        match Deputy.Facts.as_const eb with
        | Some cb -> (
            match Option.bind (checked_sub cb ka) minus_strict with
            | Some c -> zone_add_le va.I.vid Zone.zero c env
            | None -> env)
        | None -> env)
    | None, Some (vb, kb) -> (
        match Deputy.Facts.as_const ea with
        | Some ca -> (
            match Option.bind (checked_sub kb ca) minus_strict with
            | Some c -> zone_add_le Zone.zero vb.I.vid c env
            | None -> env)
        | None -> env)
    | None, None -> env

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                  *)
(* ------------------------------------------------------------------ *)

(* Remove zero from an interval when it sits at an endpoint. *)
let without_zero = function
  | Interval.Bot -> Interval.Bot
  | Interval.Iv (Interval.Fin 0L, Interval.Fin 0L) -> Interval.Bot
  | Interval.Iv (Interval.Fin 0L, hi) -> Interval.Iv (Interval.Fin 1L, hi)
  | Interval.Iv (lo, Interval.Fin 0L) -> Interval.Iv (lo, Interval.Fin (-1L))
  | iv -> iv

let set_checked (v : I.varinfo) (a : Aval.t) env =
  if Aval.is_bot a then Env.bottom else Env.set v.I.vid (Aval.reduce a) env

(* Refine stable variables under a *raw signed* comparison [a op b]
   known to hold ([op] is Le or Lt). This is exactly the predicate a
   passed Deputy check establishes, so no sign guard is needed. *)
let refine_signed_cmp ifaces op (ea : I.exp) (eb : I.exp) env =
  match env with
  | Env.Unreachable -> env
  | _ ->
      let env = relational_cmp ifaces op ea eb env in
      if Env.is_unreachable env then env
      else
      let va = eval env ea and vb = eval env eb in
      let strict = match op with A.Lt -> true | _ -> false in
      let env =
        match stable_var ea with
        | Some v -> (
            match vb.Aval.iv with
            | Interval.Bot -> env
            | Interval.Iv (_, bhi) ->
                let hi = if strict then Interval.sat_sub bhi (Interval.Fin 1L) else bhi in
                let cut = Interval.meet va.Aval.iv (Interval.Iv (Interval.Ninf, hi)) in
                set_checked v { va with Aval.iv = cut } env)
        | None -> env
      in
      if Env.is_unreachable env then env
      else
        let va = eval env ea in
        match stable_var eb with
        | Some v -> (
            match va.Aval.iv with
            | Interval.Bot -> env
            | Interval.Iv (alo, _) ->
                let lo = if strict then Interval.sat_add alo (Interval.Fin 1L) else alo in
                let vb = eval env eb in
                let cut = Interval.meet vb.Aval.iv (Interval.Iv (lo, Interval.Pinf)) in
                set_checked v { vb with Aval.iv = cut } env)
        | None -> env

(* Refine under a source-level condition [e] being truthy/falsy. *)
let rec assume ~ifaces env (e : I.exp) (branch : bool) : Env.t =
  match env with
  | Env.Unreachable -> env
  | _ -> (
      match e.I.e with
      | I.Eunop (A.Lognot, e1) -> assume ~ifaces env e1 (not branch)
      | I.Ecast (_, e1) when Deputy.Annot.strip_widening e != e -> assume ~ifaces env e1 branch
      | I.Econd (a, b, c) when Deputy.Facts.as_const c = Some 0L ->
          (* a && b *)
          if branch then assume ~ifaces (assume ~ifaces env a true) b true else env
      | I.Econd (a, b, c) when Deputy.Facts.as_const b = Some 1L ->
          (* a || c *)
          if branch then env else assume ~ifaces (assume ~ifaces env a false) c false
      | I.Ebinop (op, a, b) -> assume_cmp ifaces env op a b branch
      | I.Elval _ -> (
          match stable_var e with
          | Some v ->
              let cur = eval env e in
              if branch then
                set_checked v
                  (Aval.meet cur (Aval.make (without_zero cur.Aval.iv) Nullness.Nonnull))
                  env
              else set_checked v (Aval.meet cur (Aval.of_const 0L)) env
          | None -> env)
      | _ -> env)

and assume_cmp ifaces env op a b branch =
  let negate = function
    | A.Lt -> Some A.Ge
    | A.Le -> Some A.Gt
    | A.Gt -> Some A.Le
    | A.Ge -> Some A.Lt
    | A.Eq -> Some A.Ne
    | A.Ne -> Some A.Eq
    | _ -> None
  in
  let op = if branch then Some op else negate op in
  match op with
  | None -> env
  | Some op -> (
      let va = eval env a and vb = eval env b in
      match op with
      | A.Eq ->
          (* raw equality: meet the two abstract values into both sides,
             and record it relationally as a pair of Le constraints
             (raw equality is sign-independent, like the checks) *)
          let m = Aval.reduce (Aval.meet va vb) in
          if Aval.is_bot m then Env.bottom
          else
            let env = match stable_var a with Some v -> Env.set v.I.vid m env | None -> env in
            let env = match stable_var b with Some v -> Env.set v.I.vid m env | None -> env in
            let env = relational_cmp ifaces A.Le a b env in
            if Env.is_unreachable env then env else relational_cmp ifaces A.Le b a env
      | A.Ne ->
          let refine sv other_iv env =
            match sv with
            | Some v when Interval.equal other_iv (Interval.const 0L) ->
                let cur = eval env { I.e = I.Elval (I.Lvar v, []); I.ety = v.I.vty } in
                set_checked v
                  (Aval.meet cur (Aval.make (without_zero cur.Aval.iv) Nullness.Nonnull))
                  env
            | _ -> env
          in
          let env = refine (stable_var a) vb.Aval.iv env in
          if Env.is_unreachable env then env else refine (stable_var b) va.Aval.iv env
      | (A.Lt | A.Le | A.Gt | A.Ge) when cmp_refinable a va vb -> (
          (* reduce to Le/Lt with operands ordered small-to-large *)
          match op with
          | A.Lt -> refine_signed_cmp ifaces A.Lt a b env
          | A.Le -> refine_signed_cmp ifaces A.Le a b env
          | A.Gt -> refine_signed_cmp ifaces A.Lt b a env
          | A.Ge -> refine_signed_cmp ifaces A.Le b a env
          | _ -> env)
      | _ -> env)

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

(* Which component of the product proved the check?  The interval rule
   is tried first, so [P_relational] is attributed only to checks the
   zone alone could discharge (the relational rule strictly subsumes
   the interval one: unary seeds make every interval proof a zone
   proof too). *)
type proof = P_interval | P_relational

(* Does the (closed, interval-seeded) zone entail raw [a <= b]? *)
let zone_proves strict (a : I.exp) (b : I.exp) env =
  match Env.zone env with
  | None -> false
  | Some z ->
      let minus_strict c = if strict then checked_sub c 1L else Some c in
      let entails x y c = Zone.entails_le (Env.seeds env) x y c z in
      (match (linear_of_exp env a, linear_of_exp env b) with
      | Some (va, ka), Some (vb, kb) when va.I.vid <> vb.I.vid -> (
          match Option.bind (checked_sub kb ka) minus_strict with
          | Some c -> entails va.I.vid vb.I.vid c
          | None -> false)
      | Some (_, ka), Some (_, kb) -> (
          (* same variable: pure offset arithmetic *)
          match Option.bind (checked_sub kb ka) minus_strict with
          | Some c -> Int64.compare 0L c <= 0
          | None -> false)
      | Some (va, ka), None -> (
          match Deputy.Facts.as_const b with
          | Some cb -> (
              match Option.bind (checked_sub cb ka) minus_strict with
              | Some c -> entails va.I.vid Zone.zero c
              | None -> false)
          | None -> false)
      | None, Some (vb, kb) -> (
          match Deputy.Facts.as_const a with
          | Some ca -> (
              match Option.bind (checked_sub kb ca) minus_strict with
              | Some c -> entails Zone.zero vb.I.vid c
              | None -> false)
          | None -> false)
      | None, None -> false)

(* Does the abstract state prove the check can never fire, and which
   component gets the credit? On an unreachable state every check is
   trivially dead. *)
let provable_why ~ifaces (env : Env.t) (ck : I.check) : proof option =
  match env with
  | Env.Unreachable -> Some P_interval
  | _ -> (
      let ivl ok = if ok then Some P_interval else None in
      let rel strict a b =
        if ifaces.zone && zone_proves strict a b env then Some P_relational else None
      in
      match ck with
      | I.Ck_nonnull e -> ivl (truthiness (eval env e) = Some true)
      | I.Ck_le (a, b) -> (
          let by_iv =
            Deputy.Annot.exp_equal a b
            || (match ((eval env a).Aval.iv, (eval env b).Aval.iv) with
               | Interval.Iv (_, ahi), Interval.Iv (blo, _) -> Interval.bound_le ahi blo
               | _ -> false)
          in
          match ivl by_iv with Some p -> Some p | None -> rel false a b)
      | I.Ck_lt (a, b) -> (
          let by_iv =
            match ((eval env a).Aval.iv, (eval env b).Aval.iv) with
            | Interval.Iv (_, ahi), Interval.Iv (blo, _) ->
                Interval.bound_le ahi blo && not (Interval.bound_le blo ahi)
            | _ -> false
          in
          match ivl by_iv with Some p -> Some p | None -> rel true a b)
      | I.Ck_nt_next _ | I.Ck_not_atomic -> None)

(* A check that executed without trapping establishes its predicate. *)
let assume_check ~ifaces (env : Env.t) (ck : I.check) : Env.t =
  match env with
  | Env.Unreachable -> env
  | _ -> (
      match ck with
      | I.Ck_nonnull e -> assume ~ifaces env e true
      | I.Ck_le (a, b) -> refine_signed_cmp ifaces A.Le a b env
      | I.Ck_lt (a, b) -> refine_signed_cmp ifaces A.Lt a b env
      | I.Ck_nt_next _ | I.Ck_not_atomic -> env)

(* ------------------------------------------------------------------ *)
(* Instructions                                                       *)
(* ------------------------------------------------------------------ *)

let degrade ty a = if Aval.is_bot a then of_ty ty else a

(* Assignment [v := e] in the zone: a same-variable linear RHS is an
   exact constraint shift; any other linear RHS re-anchors [v] to its
   source with an equality; everything else havocs. Kills close the
   zone with interval seeds first so consequences survive the kill
   (e.g. [todo = n; if (todo > 512) todo = 512] materializes
   [n >= 513] on the clamped branch before [todo]'s old constraints
   go away). *)
let zone_assign ifaces (v : I.varinfo) (e : I.exp) env =
  if (not ifaces.zone) || Env.is_unreachable env then env
  else
    match linear_of_exp env e with
    | Some (w, k) when w.I.vid = v.I.vid ->
        Env.map_zone (fun z -> Some (Zone.shift v.I.vid k z)) env
    | Some (w, k) ->
        let env = zone_kill v env in
        let env = Env.map_zone (Zone.add_le v.I.vid w.I.vid k) env in
        let env =
          if Int64.equal k Int64.min_int then env
          else Env.map_zone (Zone.add_le w.I.vid v.I.vid (Int64.neg k)) env
        in
        Env.tighten_from_zone env
    | None -> zone_kill v env

let instr ?(ifaces = no_ifaces) (summaries : summaries) (env : Env.t) (i : I.instr) : Env.t =
  match env with
  | Env.Unreachable -> env
  | _ -> (
      match i with
      | I.Iset ((I.Lvar v, []), e) when Deputy.Facts.stable v ->
          let nv = degrade v.I.vty (norm_aval v.I.vty (eval env e)) in
          Env.set v.I.vid nv (zone_assign ifaces v e env)
      | I.Iset (_, _) ->
          (* Stores through memory or to unstable lvalues cannot touch
             stable variables (their address is never taken). *)
          env
      | I.Icall (Some (I.Lvar v, []), I.Direct f, _) when Deputy.Facts.stable v ->
          let ret =
            match SM.find_opt f summaries with
            | Some a -> degrade v.I.vty (norm_aval v.I.vty a)
            | None -> if List.mem f I.allocators then Aval.nonnull else of_ty v.I.vty
          in
          Env.set v.I.vid ret (zone_kill v env)
      | I.Icall (Some (I.Lvar v, []), _, _) when Deputy.Facts.stable v ->
          Env.set v.I.vid (of_ty v.I.vty) (zone_kill v env)
      | I.Icall (_, _, _) -> env
      | I.Icheck (ck, _) -> assume_check ~ifaces env ck
      | I.Irc_inc _ | I.Irc_dec _ | I.Irc_update _ -> env)

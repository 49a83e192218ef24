(* Deputy's view of pointer types.

   Every pointer is classified from its annotations:
   - [Safe]: unannotated; points to exactly one valid element and is
     never null (Deputy's default invariant);
   - [Counted c]: valid for [c] elements, [c] a dependent expression;
   - [Nullterm c]: valid for [c] elements plus a null terminator
     ([c] = 0 when only [__nullterm] is given);
   - [Trusted]: the checker must not reason about this pointer. *)

module I = Kc.Ir

type classification =
  | Safe
  | Counted of I.exp
  | Nullterm of I.exp (* known element count before the terminator *)
  | Trusted

let classify (annots : I.annots) : classification =
  if annots.I.a_trusted then Trusted
  else
    match (annots.I.a_count, annots.I.a_nullterm) with
    | Some c, false -> Counted c
    | Some c, true -> Nullterm c
    | None, true -> Nullterm I.zero
    | None, false -> Safe

let classify_ty = function I.Tptr (_, a) -> Some (classify a) | _ -> None

let is_opt_ty = function I.Tptr (_, a) -> a.I.a_opt | _ -> false

(* Substitute [Eself_field (tag, f)] with a concrete field access on
   [base], the lvalue of the struct that carries the annotated field.
   This instantiates a field-dependent count at a use site. *)
let rec subst_self (base : I.lval) (e : I.exp) : I.exp =
  match e.I.e with
  | I.Eself_field (tag, fname) ->
      let host, offs = base in
      let f =
        { I.fcomp = tag; fname; fty = e.I.ety }
        (* field type was recorded at elaboration *)
      in
      { e with I.e = I.Elval (host, offs @ [ I.Ofield f ]) }
  | I.Econst _ | I.Estr _ | I.Efun _ | I.Elval _ -> e
  | I.Eunop (op, e1) -> { e with I.e = I.Eunop (op, subst_self base e1) }
  | I.Ebinop (op, a, b) -> { e with I.e = I.Ebinop (op, subst_self base a, subst_self base b) }
  | I.Econd (c, a, b) ->
      { e with I.e = I.Econd (subst_self base c, subst_self base a, subst_self base b) }
  | I.Ecast (ty, e1) -> { e with I.e = I.Ecast (ty, subst_self base e1) }
  | I.Eaddrof _ | I.Estartof _ -> e

let mentions_self (e : I.exp) : bool =
  I.fold_exp (fun acc sub -> acc || match sub.I.e with I.Eself_field _ -> true | _ -> false) false e

(* Substitute callee formals with actual argument expressions inside a
   dependent count from a parameter type. *)
let subst_formals (bindings : (int * I.exp) list) (e : I.exp) : I.exp =
  let rec go e =
    match e.I.e with
    | I.Elval (I.Lvar v, []) -> (
        match List.assoc_opt v.I.vid bindings with Some actual -> actual | None -> e)
    | I.Econst _ | I.Estr _ | I.Efun _ | I.Eself_field _ | I.Elval _ -> e
    | I.Eunop (op, e1) -> { e with I.e = I.Eunop (op, go e1) }
    | I.Ebinop (op, a, b) -> { e with I.e = I.Ebinop (op, go a, go b) }
    | I.Econd (c, a, b) -> { e with I.e = I.Econd (go c, go a, go b) }
    | I.Ecast (ty, e1) -> { e with I.e = I.Ecast (ty, go e1) }
    | I.Eaddrof _ | I.Estartof _ -> e
  in
  go e

(* Does the count expression only mention formals of the given list?
   Needed before substituting at call sites. *)
let only_mentions_formals (formals : I.varinfo list) (e : I.exp) : bool =
  I.fold_exp
    (fun acc sub ->
      acc
      &&
      match sub.I.e with
      | I.Elval (I.Lvar v, []) -> List.exists (fun (f : I.varinfo) -> f.I.vid = v.I.vid) formals
      | I.Elval _ -> false
      | _ -> true)
    true e

(* Strip integer widening casts that preserve the raw (post-norm)
   int64 representation, so that fact matching sees through `(long) i`.
   Representation-preserving widenings are:

   - same-signedness (sign- resp. zero-extension is the identity on
     the normed int64 value);
   - unsigned source to anything wider (the value is non-negative and
     fits, so any extension is the identity);
   - signed source to unsigned only at target width 64, where norm is
     the identity on int64.

   A signed source widened to a *sub-64* unsigned target is NOT
   preserved: norm zero-extends, so a negative value changes its raw
   representation (e.g. (unsigned short)(-1 : signed char) = 65535),
   and facts about the cast must not be attributed to the source. *)
let rec strip_widening (e : I.exp) : I.exp =
  match e.I.e with
  | I.Ecast (I.Tint (k2, s2), inner) -> (
      match inner.I.ety with
      | I.Tint (k1, s1)
        when Kc.Layout.int_size k2 > Kc.Layout.int_size k1
             && (s1 = s2 || s1 = Kc.Ast.Unsigned
                 || (s2 = Kc.Ast.Unsigned && Kc.Layout.int_size k2 = 8)) ->
          strip_widening inner
      | _ -> e)
  | _ -> e

(* Constant folding through casts: the elaborator wraps literals in
   widening/conversion casts (e.g. `(long) 0`), which annotation and
   discharge logic must see through. *)
let rec const_fold (e : I.exp) : int64 option =
  match e.I.e with
  | I.Econst n -> Some n
  | I.Ecast (I.Tint (k, s), inner) -> (
      match const_fold inner with
      | Some v ->
          let w = Kc.Layout.int_size k in
          if w = 8 then Some v
          else
            let shift = 64 - (8 * w) in
            let shifted = Int64.shift_left v shift in
            Some
              (if s = Kc.Ast.Signed then Int64.shift_right shifted shift
               else Int64.shift_right_logical shifted shift)
      | None -> None)
  | I.Ecast (I.Tptr _, inner) -> (
      match const_fold inner with Some 0L -> Some 0L | _ -> None)
  | I.Eunop (Kc.Ast.Neg, inner) -> Option.map Int64.neg (const_fold inner)
  | _ -> None

(* Decompose a pointer expression into (base, element index). Pointer
   arithmetic accumulates into the index; anything else is a base. *)
let rec split_base (p : I.exp) : I.exp * I.exp =
  match p.I.e with
  | I.Ebinop (Kc.Ast.Add, base, idx) when I.is_pointer base.I.ety ->
      let b, i = split_base base in
      if i.I.e = I.Econst 0L then (b, idx)
      else (b, I.mk_exp (I.Ebinop (Kc.Ast.Add, i, idx)) I.long_type)
  | I.Ebinop (Kc.Ast.Sub, base, idx) when I.is_pointer base.I.ety ->
      let b, i = split_base base in
      let neg = I.mk_exp (I.Eunop (Kc.Ast.Neg, idx)) I.long_type in
      if i.I.e = I.Econst 0L then (b, neg)
      else (b, I.mk_exp (I.Ebinop (Kc.Ast.Add, i, neg)) I.long_type)
  | _ -> (p, I.zero)

(* Syntactic equality of expressions (modulo locations, which the IR
   does not keep on expressions). *)
let rec exp_equal (a : I.exp) (b : I.exp) : bool =
  match (a.I.e, b.I.e) with
  | I.Econst x, I.Econst y -> x = y
  | I.Estr x, I.Estr y -> x = y
  | I.Efun x, I.Efun y -> x = y
  | I.Eself_field (t1, f1), I.Eself_field (t2, f2) -> t1 = t2 && f1 = f2
  | I.Elval lv1, I.Elval lv2 -> lval_equal lv1 lv2
  | I.Eunop (o1, x), I.Eunop (o2, y) -> o1 = o2 && exp_equal x y
  | I.Ebinop (o1, x1, y1), I.Ebinop (o2, x2, y2) -> o1 = o2 && exp_equal x1 x2 && exp_equal y1 y2
  | I.Econd (c1, x1, y1), I.Econd (c2, x2, y2) ->
      exp_equal c1 c2 && exp_equal x1 x2 && exp_equal y1 y2
  | I.Ecast (t1, x), I.Ecast (t2, y) -> I.eq_erased t1 t2 && exp_equal x y
  | I.Eaddrof lv1, I.Eaddrof lv2 | I.Estartof lv1, I.Estartof lv2 -> lval_equal lv1 lv2
  | ( ( I.Econst _ | I.Estr _ | I.Efun _ | I.Eself_field _ | I.Elval _ | I.Eunop _ | I.Ebinop _
      | I.Econd _ | I.Ecast _ | I.Eaddrof _ | I.Estartof _ ),
      _ ) ->
      false

and lval_equal ((h1, o1) : I.lval) ((h2, o2) : I.lval) : bool =
  (match (h1, h2) with
  | I.Lvar v1, I.Lvar v2 -> v1.I.vid = v2.I.vid
  | I.Lmem e1, I.Lmem e2 -> exp_equal e1 e2
  | (I.Lvar _ | I.Lmem _), _ -> false)
  && List.length o1 = List.length o2
  && List.for_all2
       (fun a b ->
         match (a, b) with
         | I.Ofield f1, I.Ofield f2 -> f1.I.fname = f2.I.fname && f1.I.fcomp = f2.I.fcomp
         | I.Oindex e1, I.Oindex e2 -> exp_equal e1 e2
         | (I.Ofield _ | I.Oindex _), _ -> false)
       o1 o2

(* Count the annotations carried by a type, for the paper's annotation
   census (E1). *)
let rec count_annotations (ty : I.ty) : int =
  match ty with
  | I.Tptr (t, a) ->
      (match a.I.a_count with Some _ -> 1 | None -> 0)
      + (if a.I.a_nullterm then 1 else 0)
      + (if a.I.a_opt then 1 else 0)
      + (if a.I.a_trusted then 1 else 0)
      + (if a.I.a_user then 1 else 0)
      + count_annotations t
  | I.Tarray (t, _) -> count_annotations t
  | I.Tfun (r, args) -> List.fold_left (fun acc t -> acc + count_annotations t) (count_annotations r) args
  | I.Tvoid | I.Tint _ | I.Tcomp _ -> 0

(* The artifact graph: the engine's incremental-computation core.

   Every expensive value a context hands out (points-to, call graph,
   per-function CFGs, absint summaries, the deputized view, compiled
   VM code, per-analysis diagnostic lists) lives in one graph as a
   node keyed by (name x param). A node records

   - the *content hash* of its direct inputs at build time ([n_fp]:
     a digest the caller derives from the program, see
     {!Fingerprint}),
   - the keys its build read through {!get} and the stamp each had
     when it was read ([n_deps]),
   - a monotonically increasing build stamp ([n_stamp]).

   Edges are recorded, not declared: the graph keeps a stack of the
   builds in progress, and every [get] made while one runs, hit or
   build, is appended to the innermost frame, which becomes the new
   node's [n_deps]. The same frame collects the time of the builds
   nested in it, so build seconds are self times.

   A cached node is served only while its input hash still matches
   and no recorded read has been rebuilt since (stamp check);
   otherwise the rebuild is counted as an invalidation + build.
   [invalidate] is the push direction: drop a key and everything
   downstream of it along the recorded edges (used when an edit
   removes a function, and by the `invalidate` RPC of ivy serve).

   Values are stored through a tiny universal type; each artifact
   family allocates one ['a slot] statically, so injection/projection
   is total in practice (a projection failure is a programming error
   and rebuilds defensively).

   The graph is single-domain, like the context that owns it: memo
   tables are plain Hashtbls. Parallel drivers keep one graph per
   worker and aggregate observability with {!merge}. *)

type key = { name : string; param : string }

let key ?(param = "") name = { name; param }

type univ = exn

type 'a slot = { inj : 'a -> univ; prj : univ -> 'a option }

let slot (type a) () : a slot =
  let module M = struct
    exception E of a
  end in
  { inj = (fun x -> M.E x); prj = (function M.E x -> Some x | _ -> None) }

type counters = {
  mutable c_builds : int;
  mutable c_hits : int;
  mutable c_invalidations : int;
  mutable c_seconds : float;
}

type node = {
  n_deps : (key * int) list;
  n_fp : string;
  n_stamp : int;
  n_value : univ;
}

(* A build in progress: the reads it has made so far, and the
   inclusive time of the builds nested in it. *)
type frame = { mutable reads : (key * int) list; mutable nested_ns : int64 }

type t = {
  nodes : (key, node) Hashtbl.t;
  counters : (string, counters) Hashtbl.t; (* aggregated per key name *)
  mutable next_stamp : int;
  mutable building : frame list; (* innermost first *)
}

let create () =
  { nodes = Hashtbl.create 64; counters = Hashtbl.create 16; next_stamp = 0; building = [] }

let counters_for (t : t) (name : string) : counters =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_builds = 0; c_hits = 0; c_invalidations = 0; c_seconds = 0.0 } in
      Hashtbl.replace t.counters name c;
      c

let stamp_of (t : t) (k : key) : int =
  match Hashtbl.find_opt t.nodes k with Some n -> n.n_stamp | None -> -1

(* A node is fresh while its recorded input hash matches and every
   recorded read still carries the stamp it had then. Its reads are
   not re-fetched first: that is sound because a node that reads
   others keys [fp] on a digest covering theirs (see graph.mli). *)
let fresh (t : t) (n : node) (fp : string) : bool =
  String.equal n.n_fp fp && List.for_all (fun (k, s) -> stamp_of t k = s) n.n_deps

(* Build seconds are monotonic self times: a build that fetches
   another artifact, which then builds, is charged only for its own
   work, and the inner build's time goes to the inner artifact. *)
let build_node (t : t) (c : counters) key fp (slot : 'a slot) (build : unit -> 'a) : 'a =
  let frame = { reads = []; nested_ns = 0L } in
  let outer = t.building in
  t.building <- frame :: outer;
  let t0 = Monotonic_clock.now () in
  let finish () =
    let dt = Int64.sub (Monotonic_clock.now ()) t0 in
    c.c_seconds <- c.c_seconds +. (Int64.to_float (Int64.sub dt frame.nested_ns) /. 1e9);
    t.building <- outer;
    match outer with
    | parent :: _ -> parent.nested_ns <- Int64.add parent.nested_ns dt
    | [] -> ()
  in
  let v = Fun.protect ~finally:finish build in
  c.c_builds <- c.c_builds + 1;
  t.next_stamp <- t.next_stamp + 1;
  Hashtbl.replace t.nodes key
    { n_deps = frame.reads; n_fp = fp; n_stamp = t.next_stamp; n_value = slot.inj v };
  v

let get (t : t) (slot : 'a slot) (k : key) ~fp (build : unit -> 'a) : 'a =
  let c = counters_for t k.name in
  let v =
    match Hashtbl.find_opt t.nodes k with
    | Some n when fresh t n fp -> (
        match slot.prj n.n_value with
        | Some v ->
            c.c_hits <- c.c_hits + 1;
            v
        | None ->
            (* slot mismatch: two families share a key name. Rebuild
               defensively rather than returning a wrong type. *)
            c.c_invalidations <- c.c_invalidations + 1;
            build_node t c k fp slot build)
    | Some _ ->
        c.c_invalidations <- c.c_invalidations + 1;
        build_node t c k fp slot build
    | None -> build_node t c k fp slot build
  in
  (match t.building with
  | frame :: _ -> frame.reads <- (k, stamp_of t k) :: frame.reads
  | [] -> ());
  v

let mem (t : t) (k : key) : bool = Hashtbl.mem t.nodes k

(* Transitive dependents of [roots] along the recorded edges,
   including any root that is itself present. *)
let downstream (t : t) (roots : key list) : key list =
  let dead = Hashtbl.create 16 in
  List.iter (fun k -> if Hashtbl.mem t.nodes k then Hashtbl.replace dead k ()) roots;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun k (n : node) ->
        if (not (Hashtbl.mem dead k)) && List.exists (fun (d, _) -> Hashtbl.mem dead d) n.n_deps
        then begin
          Hashtbl.replace dead k ();
          changed := true
        end)
      t.nodes
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) dead []

let invalidate (t : t) (k : key) : int =
  let dead = downstream t [ k ] in
  List.iter
    (fun k ->
      (counters_for t k.name).c_invalidations <-
        (counters_for t k.name).c_invalidations + 1;
      Hashtbl.remove t.nodes k)
    dead;
  List.length dead

let invalidate_all (t : t) : int =
  let n = Hashtbl.length t.nodes in
  Hashtbl.iter (fun k _ -> (counters_for t k.name).c_invalidations <-
                             (counters_for t k.name).c_invalidations + 1)
    t.nodes;
  Hashtbl.reset t.nodes;
  n

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

type stat = {
  artifact : string;
  builds : int;
  hits : int;
  invalidations : int;
  seconds : float;
}

let stats (t : t) : stat list =
  Hashtbl.fold
    (fun artifact c acc ->
      {
        artifact;
        builds = c.c_builds;
        hits = c.c_hits;
        invalidations = c.c_invalidations;
        seconds = c.c_seconds;
      }
      :: acc)
    t.counters []
  |> List.sort (fun a b -> String.compare a.artifact b.artifact)

(* Fold per-worker stat lists into one: per-artifact sums, sorted by
   artifact name — deterministic regardless of worker scheduling. *)
let merge (per_worker : stat list list) : stat list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun stats ->
      List.iter
        (fun s ->
          let b, h, i, sec =
            Option.value (Hashtbl.find_opt tbl s.artifact) ~default:(0, 0, 0, 0.0)
          in
          Hashtbl.replace tbl s.artifact
            (b + s.builds, h + s.hits, i + s.invalidations, sec +. s.seconds))
        stats)
    per_worker;
  Hashtbl.fold
    (fun artifact (builds, hits, invalidations, seconds) acc ->
      { artifact; builds; hits; invalidations; seconds } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.artifact b.artifact)

let total_builds (stats : stat list) = List.fold_left (fun acc s -> acc + s.builds) 0 stats
let total_hits (stats : stat list) = List.fold_left (fun acc s -> acc + s.hits) 0 stats

let total_invalidations (stats : stat list) =
  List.fold_left (fun acc s -> acc + s.invalidations) 0 stats

(* The deterministic counts and the build seconds of [after]
   minus [before], per artifact: what one request paid. *)
let delta ~(before : stat list) (after : stat list) : stat list =
  let find name =
    match List.find_opt (fun s -> s.artifact = name) before with
    | Some s -> s
    | None -> { artifact = name; builds = 0; hits = 0; invalidations = 0; seconds = 0.0 }
  in
  List.filter_map
    (fun s ->
      let b = find s.artifact in
      let d =
        {
          artifact = s.artifact;
          builds = s.builds - b.builds;
          hits = s.hits - b.hits;
          invalidations = s.invalidations - b.invalidations;
          seconds = s.seconds -. b.seconds;
        }
      in
      if d.builds = 0 && d.hits = 0 && d.invalidations = 0 then None else Some d)
    after

(* ------------------------------------------------------------------ *)
(* LRU across programs                                                *)
(* ------------------------------------------------------------------ *)

(* Bounded recency store keyed by program id: `ivy serve` keeps one
   warm context per program in one of these, evicting the least
   recently used program when the capacity is hit. O(n) eviction scan;
   capacities are tens of programs, not thousands of entries. *)
module Lru = struct
  type 'a entry = { mutable used : int; value : 'a }

  type 'a t = {
    capacity : int;
    tbl : (string, 'a entry) Hashtbl.t;
    mutable tick : int;
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
    { capacity; tbl = Hashtbl.create (min capacity 64); tick = 0; evictions = 0 }

  let size t = Hashtbl.length t.tbl
  let capacity t = t.capacity
  let evictions t = t.evictions
  let mem t k = Hashtbl.mem t.tbl k

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | Some e ->
        t.tick <- t.tick + 1;
        e.used <- t.tick;
        Some e.value
    | None -> None

  let remove t k = Hashtbl.remove t.tbl k

  (* Insert (or refresh) [k]; returns the evicted binding, if any. *)
  let add t k v =
    let evicted =
      if (not (Hashtbl.mem t.tbl k)) && Hashtbl.length t.tbl >= t.capacity then begin
        let victim =
          Hashtbl.fold
            (fun k' e acc ->
              match acc with
              | Some (_, e') when e'.used <= e.used -> acc
              | _ -> Some (k', e))
            t.tbl None
        in
        match victim with
        | Some (k', e') ->
            Hashtbl.remove t.tbl k';
            t.evictions <- t.evictions + 1;
            Some (k', e'.value)
        | None -> None
      end
      else None
    in
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl k { used = t.tick; value = v };
    evicted

  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort String.compare

  let fold f t acc = Hashtbl.fold (fun k e acc -> f k e.value acc) t.tbl acc
end

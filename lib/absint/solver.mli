(** Per-function product-domain fixpoint over the KC CFG: widening at
    back-edge targets (delayed two visits, see {!Dataflow.Worklist}),
    branch-edge refinement, bounded narrowing. *)

type fresult = {
  cfg : Dataflow.Cfg.t;
  before : Env.t array;  (** abstract state at each node's entry *)
  after : Env.t array;  (** ... and exit *)
  iterations : int;  (** node evaluations until the fixpoint *)
  widen_points : int;  (** back-edge targets, where widening applies *)
}

val back_edge_targets : Dataflow.Cfg.t -> bool array

val analyze_cfg :
  ?summaries:Transfer.summaries -> ?ifaces:Transfer.ifaces -> Dataflow.Cfg.t -> fresult

val analyze : ?summaries:Transfer.summaries -> ?ifaces:Transfer.ifaces -> Kc.Ir.fundec -> fresult

val return_aval : Kc.Ir.fundec -> fresult -> Aval.t
(** Join over all reachable returns, normed to the return type; the
    function's summary. A reachable [return;] or fall-off contributes
    0, the value the VM returns there. *)

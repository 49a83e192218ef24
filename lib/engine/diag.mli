(** The unified diagnostic: every analysis running under the engine
    reports findings as [Diag.t] values instead of inventing its own
    report record, so one renderer (text or JSON) serves them all and
    output order is deterministic across runs. *)

type severity = Info | Warning | Error

type t = {
  analysis : string;  (** short analysis name, e.g. "locksafe" *)
  severity : severity;
  loc : Kc.Loc.t;
  message : string;
  fix_hint : string option;  (** how a developer would silence/fix it *)
}

val make :
  ?severity:severity -> ?fix_hint:string -> analysis:string -> loc:Kc.Loc.t -> string -> t

val severity_to_string : severity -> string

(** Total order: file, line, column, analysis, severity, message —
    so a diagnostic list sorts the same way on every run. *)
val compare : t -> t -> int

(** Sort by {!compare} and drop exact duplicates. *)
val sort : t list -> t list

(** ["file:line: [severity] analysis: message (hint: ...)"] *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** A string's JSON form without the surrounding quotes: escapes the
    double quote, the backslash and every control character. *)
val json_escape : string -> string

(** One JSON object; [list_to_json] wraps a sorted list in an array. *)
val to_json : t -> string

val list_to_json : t list -> string

(** [(severity, count)] pairs for the non-empty severities. *)
val tally : t list -> (severity * int) list

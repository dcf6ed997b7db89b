(** Resource governor for the admission pipeline: one per-admission
    budget (solver node budget, optional monotonic-clock deadline) plus
    the parameters of the degradation ladder — escalated retries,
    full-recompose fallback, and finally the structured [Overloaded]
    outcome.

    The governor is pure configuration and arithmetic; [Qdb] owns the
    ladder control flow.  {!default} reproduces the engine's historical
    behaviour (budget = [config.node_limit], no deadline). *)

type t = {
  node_budget : int option;
      (** base solver node budget per admission attempt;
          [None] inherits the engine's [config.node_limit] *)
  deadline_ns : int64 option;  (** per-admission wall budget, relative ns *)
  max_retries : int;  (** escalated incremental retries before degrading *)
  escalation : int;  (** node-budget multiplier per ladder rung *)
  backoff_ns : int64;  (** base backoff before each retry; 0 = none *)
}

val default : t

val make :
  ?node_budget:int ->
  ?deadline_ns:int64 ->
  ?max_retries:int ->
  ?escalation:int ->
  ?backoff_ns:int64 ->
  unit ->
  t
(** Defaults: inherit the engine node limit, no deadline, 2 retries, 8x escalation, no backoff.  [max_retries] is
    clamped to ≥ 0, [escalation] to ≥ 1. *)

type charge
(** An armed budget: the relative deadline pinned to an absolute
    monotonic instant at the top of one admission. *)

val arm : t -> charge

val deadline : charge -> int64 option
(** Absolute monotonic-clock deadline, for threading into the solver. *)

val max_retries : charge -> int

val expired : charge -> bool
(** Has the armed deadline already passed? *)

val node_budget : charge -> default_limit:int -> retry:int -> int
(** Node budget of ladder rung [retry] (0 = first attempt): base times
    [escalation]^retry, saturating. *)

val backoff : charge -> salt:int -> retry:int -> unit
(** Sleep the jittered exponential backoff before retry [retry]
    (0-based).  Jitter is a pure hash of [(salt, retry)] — deterministic
    across runs and domain counts — and the sleep is capped at 50 ms.
    No-op when the governor's base backoff is 0 (the default). *)

val pp : Format.formatter -> t -> unit

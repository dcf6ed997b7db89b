(** Deterministic crash/recover cycles over the full engine.

    Each cycle drives a PRNG-scheduled travel workload through
    {!Quantum.Qdb} on a {!Fault}-wrapped WAL backend, crashes at a random
    append with a random damage mode, recovers from the damaged log
    alone, and asserts the recovery contract: the recovered database is
    a prefix of the committed batches (never a half-applied batch, never
    invented state), the composed-satisfiability invariant holds for
    every re-admitted pending transaction, and the engine's pending set
    agrees with the durable pending-transactions table.

    Everything derives from the seed: same seed, same cycles, same
    summary. *)

type summary = {
  cycles : int;
  crashes : int;
  truncations : int;  (** recoveries that dropped at least one record *)
  records_kept : int;  (** summed over all recoveries *)
  records_dropped : int;
  clean_crashes : int;
  torn_crashes : int;
  flipped_crashes : int;
  mid_log_flips : int;  (** cycles where a silent mid-log bit flip landed *)
  violations : (int * string) list;  (** (cycle, what broke) — must be [] *)
}

val run :
  ?cycles:int ->
  ?seed:int ->
  ?actors:int ->
  unit ->
  summary
(** Defaults: 200 cycles, seed 42.  With [actors], every post-fixture
    engine operation round-trips through an owning actor on a real
    spawned domain ({!Actor.Runtime.call}, unclamped), proving the
    injected crash propagates across the domain boundary and the
    recovery contract holds in actor mode too.  Every cycle runs the
    default engine configuration. *)

val pp : Format.formatter -> summary -> unit

(** {1 Server mode}

    The same contract through the network front door: the store sits on
    a volatile write buffer ({!Fault.write_buffered} — appends reach
    stable storage only at a group-commit fsync), one client session
    per flight pipelines submissions over real sockets, and an armed
    flush kills the "process" mid-sync.  Recovery from the durable
    backend alone must contain every admission a client was {e acked}
    (acks go out only after the batch fsync), must be a batch-prefix of
    the attempted history (un-acked admissions may vanish but never
    half-apply), and must satisfy the composed-satisfiability
    invariant. *)

type server_summary = {
  srv_cycles : int;
  srv_crashes : int;  (** cycles where the armed flush fired *)
  srv_acked : int;  (** acked admissions verified durable *)
  srv_lost_unacked : int;
      (** un-acked submissions absent after recovery — allowed losses,
          counted to show the volatile buffer actually bites *)
  srv_batches : int;  (** group-commit batches that synced *)
  srv_violations : (int * string) list;  (** (cycle, what broke) — must be [] *)
}

val run_server : ?cycles:int -> ?seed:int -> unit -> server_summary
(** Defaults: 20 cycles, seed 77.  Which admissions end up acked depends
    on scheduling (batch formation races the crash), but the contract
    must hold at every interleaving. *)

val pp_server : Format.formatter -> server_summary -> unit

(** Engine-level counters and latency histograms — the raw material of
    the experiment harness (Figures 5, 7, 8) and the telemetry exporters.

    Latencies are per-operation log-bucketed histograms timed on the
    monotonic clock; the old flat accumulators survive as the derived
    sums {!time_submit}/{!time_ground}/{!time_read}. *)

type t = {
  mutable submitted : int;
  mutable committed : int;
  mutable rejected : int;
  mutable overloaded : int;
      (** admissions refused on budget exhaustion, not semantics *)
  mutable grounded : int;
  mutable forced_groundings : int;  (** k-pressure or read-induced *)
  mutable reads : int;
  mutable writes : int;
  mutable writes_rejected : int;
  mutable partition_merges : int;
  mutable governor_retries : int;  (** escalated-budget admission re-solves *)
  mutable governor_degraded_full_solve : int;
      (** incremental → full-recompose ladder fallbacks *)
  mutable governor_exhaustions : int;
      (** every budget blowup the ladder absorbed, wherever it was caught *)
  mutable refill_failures : int;
      (** cache-refill rounds abandoned after a job failure *)
  submit_latency : Obs.Histogram.t;  (** seconds, one observation per submit *)
  accept_latency : Obs.Histogram.t;  (** submit latency split by outcome... *)
  reject_latency : Obs.Histogram.t;
  overload_latency : Obs.Histogram.t;
  ground_latency : Obs.Histogram.t;  (** per grounding call *)
  read_latency : Obs.Histogram.t;  (** per read *)
  cache_stats : Solver.Cache.stats;
  solver_stats : Solver.Backtrack.stats;
}

val create : unit -> t

val reset : t -> unit
(** Zero every counter, histogram and solver/cache stat in place. *)

val timed : (float -> unit) -> (unit -> 'a) -> 'a
(** [timed accumulate f] runs [f], passing its monotonic-clock duration in
    seconds to [accumulate] even when [f] raises. *)

val observe : Obs.Histogram.t -> (unit -> 'a) -> 'a
(** [observe h f] times [f] into histogram [h] (even when [f] raises). *)

val time_submit : t -> float
(** Total seconds spent in [submit] — the sum of {!t.submit_latency}. *)

val time_ground : t -> float
val time_read : t -> float

val merge : into:t -> t -> unit
(** Fold counters, histograms and solver/cache stats of one engine's
    metrics into another — the harness's per-run aggregation. *)

val snapshot : t -> Obs.Registry.t
(** Registry view for {!Obs.Export}: counters copied, histograms shared
    by reference. *)

val pp : Format.formatter -> t -> unit

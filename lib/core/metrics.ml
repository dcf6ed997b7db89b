(* Engine-level counters and latency histograms, the raw material of the
   experiment harness (Figures 5, 7, 8) and of the telemetry exporters.

   The flat wall-clock accumulators of the first prototype are gone:
   submit/ground/read latencies are recorded per-operation into
   log-bucketed histograms (p50/p90/p99/max), timed on the monotonic
   clock.  [time_submit]/[time_ground]/[time_read] survive as derived
   sums so the harness tables and [pp] output are unchanged. *)

type t = {
  mutable submitted : int;
  mutable committed : int;
  mutable rejected : int;
  mutable overloaded : int; (* admissions refused on budget exhaustion, not semantics *)
  mutable grounded : int;
  mutable forced_groundings : int; (* k-pressure or read-induced *)
  mutable reads : int;
  mutable writes : int;
  mutable writes_rejected : int;
  mutable partition_merges : int;
  mutable governor_retries : int; (* escalated-budget admission re-solves *)
  mutable governor_degraded_full_solve : int; (* incremental → full-recompose fallbacks *)
  mutable governor_exhaustions : int; (* every budget blowup the ladder absorbed *)
  mutable refill_failures : int; (* cache-refill rounds abandoned on a job failure *)
  submit_latency : Obs.Histogram.t; (* seconds, one observation per submit *)
  accept_latency : Obs.Histogram.t; (* submit latency split by outcome... *)
  reject_latency : Obs.Histogram.t;
  overload_latency : Obs.Histogram.t;
  ground_latency : Obs.Histogram.t; (* per grounding call *)
  read_latency : Obs.Histogram.t; (* per read *)
  cache_stats : Solver.Cache.stats;
  solver_stats : Solver.Backtrack.stats;
}

let create () =
  {
    submitted = 0;
    committed = 0;
    rejected = 0;
    overloaded = 0;
    grounded = 0;
    forced_groundings = 0;
    reads = 0;
    writes = 0;
    writes_rejected = 0;
    partition_merges = 0;
    governor_retries = 0;
    governor_degraded_full_solve = 0;
    governor_exhaustions = 0;
    refill_failures = 0;
    submit_latency = Obs.Histogram.create ();
    accept_latency = Obs.Histogram.create ();
    reject_latency = Obs.Histogram.create ();
    overload_latency = Obs.Histogram.create ();
    ground_latency = Obs.Histogram.create ();
    read_latency = Obs.Histogram.create ();
    cache_stats = Solver.Cache.fresh_stats ();
    solver_stats = Solver.Backtrack.fresh_stats ();
  }

let reset m =
  m.submitted <- 0;
  m.committed <- 0;
  m.rejected <- 0;
  m.overloaded <- 0;
  m.grounded <- 0;
  m.forced_groundings <- 0;
  m.reads <- 0;
  m.writes <- 0;
  m.writes_rejected <- 0;
  m.partition_merges <- 0;
  m.governor_retries <- 0;
  m.governor_degraded_full_solve <- 0;
  m.governor_exhaustions <- 0;
  m.refill_failures <- 0;
  Obs.Histogram.reset m.submit_latency;
  Obs.Histogram.reset m.accept_latency;
  Obs.Histogram.reset m.reject_latency;
  Obs.Histogram.reset m.overload_latency;
  Obs.Histogram.reset m.ground_latency;
  Obs.Histogram.reset m.read_latency;
  m.cache_stats.Solver.Cache.extensions <- 0;
  m.cache_stats.Solver.Cache.extension_hits <- 0;
  m.cache_stats.Solver.Cache.full_solves <- 0;
  m.cache_stats.Solver.Cache.invalidations <- 0;
  m.solver_stats.Solver.Backtrack.nodes <- 0;
  m.solver_stats.Solver.Backtrack.candidates <- 0;
  m.solver_stats.Solver.Backtrack.backtracks <- 0;
  m.solver_stats.Solver.Backtrack.propagations <- 0

let timed accumulate f =
  let start = Obs.Mclock.now_ns () in
  let finally () = accumulate (Obs.Mclock.elapsed_s start) in
  Fun.protect ~finally f

let observe histogram f = timed (Obs.Histogram.observe histogram) f

let time_submit m = Obs.Histogram.sum m.submit_latency
let time_ground m = Obs.Histogram.sum m.ground_latency
let time_read m = Obs.Histogram.sum m.read_latency

let pp fmt m =
  Format.fprintf fmt
    "@[<v>submitted=%d committed=%d rejected=%d overloaded=%d grounded=%d forced=%d@,\
     reads=%d writes=%d writes_rejected=%d merges=%d@,\
     governor: retries=%d degraded_full=%d exhaustions=%d refill_failures=%d@,\
     t_submit=%.3fs t_ground=%.3fs t_read=%.3fs@,\
     cache: ext=%d hit=%d full=%d inval=%d@,\
     solver: nodes=%d cand=%d back=%d@]"
    m.submitted m.committed m.rejected m.overloaded m.grounded m.forced_groundings m.reads
    m.writes m.writes_rejected m.partition_merges m.governor_retries
    m.governor_degraded_full_solve m.governor_exhaustions m.refill_failures (time_submit m)
    (time_ground m) (time_read m)
    m.cache_stats.Solver.Cache.extensions m.cache_stats.Solver.Cache.extension_hits
    m.cache_stats.Solver.Cache.full_solves m.cache_stats.Solver.Cache.invalidations
    m.solver_stats.Solver.Backtrack.nodes m.solver_stats.Solver.Backtrack.candidates
    m.solver_stats.Solver.Backtrack.backtracks

(* Fold another engine's metrics into [into] — the harness aggregates the
   per-run engines it creates into one sink for telemetry export. *)
let merge ~into m =
  into.submitted <- into.submitted + m.submitted;
  into.committed <- into.committed + m.committed;
  into.rejected <- into.rejected + m.rejected;
  into.overloaded <- into.overloaded + m.overloaded;
  into.grounded <- into.grounded + m.grounded;
  into.forced_groundings <- into.forced_groundings + m.forced_groundings;
  into.reads <- into.reads + m.reads;
  into.writes <- into.writes + m.writes;
  into.writes_rejected <- into.writes_rejected + m.writes_rejected;
  into.partition_merges <- into.partition_merges + m.partition_merges;
  into.governor_retries <- into.governor_retries + m.governor_retries;
  into.governor_degraded_full_solve <-
    into.governor_degraded_full_solve + m.governor_degraded_full_solve;
  into.governor_exhaustions <- into.governor_exhaustions + m.governor_exhaustions;
  into.refill_failures <- into.refill_failures + m.refill_failures;
  Obs.Histogram.merge ~into:into.submit_latency m.submit_latency;
  Obs.Histogram.merge ~into:into.accept_latency m.accept_latency;
  Obs.Histogram.merge ~into:into.reject_latency m.reject_latency;
  Obs.Histogram.merge ~into:into.overload_latency m.overload_latency;
  Obs.Histogram.merge ~into:into.ground_latency m.ground_latency;
  Obs.Histogram.merge ~into:into.read_latency m.read_latency;
  into.cache_stats.Solver.Cache.extensions <-
    into.cache_stats.Solver.Cache.extensions + m.cache_stats.Solver.Cache.extensions;
  into.cache_stats.Solver.Cache.extension_hits <-
    into.cache_stats.Solver.Cache.extension_hits + m.cache_stats.Solver.Cache.extension_hits;
  into.cache_stats.Solver.Cache.full_solves <-
    into.cache_stats.Solver.Cache.full_solves + m.cache_stats.Solver.Cache.full_solves;
  into.cache_stats.Solver.Cache.invalidations <-
    into.cache_stats.Solver.Cache.invalidations + m.cache_stats.Solver.Cache.invalidations;
  Solver.Backtrack.add_stats ~into:into.solver_stats m.solver_stats

(* Registry snapshot for the exporters: counters are copied, histograms
   are installed by reference (so a held registry stays live). *)
let snapshot m =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.set_counter reg in
  c "qdb.submitted" m.submitted;
  c "qdb.committed" m.committed;
  c "qdb.rejected" m.rejected;
  c "qdb.admission.overloaded" m.overloaded;
  c "qdb.grounded" m.grounded;
  c "qdb.forced_groundings" m.forced_groundings;
  c "qdb.reads" m.reads;
  c "qdb.writes" m.writes;
  c "qdb.writes_rejected" m.writes_rejected;
  c "qdb.partition_merges" m.partition_merges;
  c "qdb.governor.retries" m.governor_retries;
  c "qdb.governor.degraded_full_solve" m.governor_degraded_full_solve;
  c "qdb.governor.exhaustions" m.governor_exhaustions;
  c "qdb.governor.refill_failures" m.refill_failures;
  c "cache.extensions" m.cache_stats.Solver.Cache.extensions;
  c "cache.extension_hits" m.cache_stats.Solver.Cache.extension_hits;
  c "cache.full_solves" m.cache_stats.Solver.Cache.full_solves;
  c "cache.invalidations" m.cache_stats.Solver.Cache.invalidations;
  c "solver.nodes" m.solver_stats.Solver.Backtrack.nodes;
  c "solver.candidates" m.solver_stats.Solver.Backtrack.candidates;
  c "solver.backtracks" m.solver_stats.Solver.Backtrack.backtracks;
  c "solver.propagations" m.solver_stats.Solver.Backtrack.propagations;
  Obs.Registry.set_histogram reg "qdb.submit.latency" m.submit_latency;
  Obs.Registry.set_histogram reg "qdb.submit.accept_latency" m.accept_latency;
  Obs.Registry.set_histogram reg "qdb.submit.reject_latency" m.reject_latency;
  Obs.Registry.set_histogram reg "qdb.submit.overload_latency" m.overload_latency;
  Obs.Registry.set_histogram reg "qdb.ground.latency" m.ground_latency;
  Obs.Registry.set_histogram reg "qdb.read.latency" m.read_latency;
  reg

(* What one run of a workload accumulates: raw samples for the end-to-end
   metrics, correctness checks, and named per-layer sums. *)

(* One measurement cycle.  On a virtual machine shared with other work
   (the 2-vCPU Xeon guest the bounds were recorded on) the same code runs
   up to twice as slow for stretches of seconds, so serve_steady measures
   several cycles spread over its run and reports, per metric, the best
   one: the reading least disturbed by the rest of the host.  In-process
   workloads fold their passes into a single cycle instead. *)
type cycle = {
  book : Sample.t;  (** accepted bookings, seconds *)
  reply : Sample.t;  (** every reply a client waited for, seconds *)
  rates : Sample.t;  (** throughput readings, ops/s; the cycle's rate is their median *)
}

type t = {
  mutable attempted : int;
  mutable failed : int;  (** Overloaded, error replies, unanswered requests *)
  mutable cycles : cycle list;
  setup : Sample.t;  (** seconds per set-up *)
  mutable coordinated : int;
  mutable coordination_max : int;
  check : Check.t;
  layers : (string, float) Hashtbl.t;
}

let create ?(check = Check.create ()) () =
  {
    attempted = 0;
    failed = 0;
    cycles = [];
    setup = Sample.create ();
    coordinated = 0;
    coordination_max = 0;
    check;
    layers = Hashtbl.create 64;
  }

let new_cycle t =
  let c = { book = Sample.create (); reply = Sample.create (); rates = Sample.create () } in
  t.cycles <- c :: t.cycles;
  c

let layer t name = Option.value ~default:0. (Hashtbl.find_opt t.layers name)
let add t name v = Hashtbl.replace t.layers name (layer t name +. v)
let add_int t name v = add t name (float_of_int v)
let raise_to t name v = Hashtbl.replace t.layers name (Float.max (layer t name) v)

let timed f =
  let t0 = Obs.Mclock.now_ns () in
  let x = f () in
  (x, Obs.Mclock.elapsed_s t0)

(* Flight-recorder phase totals, ns, in [Obs.Flight.all_phases] order. *)
let phases () = List.map snd (Obs.Flight.totals ())

(* Charge the phase time between two snapshots to "phase.<name>", s. *)
let add_phases t ~before ~after =
  List.iter2
    (fun p (b, a) -> add t ("phase." ^ Obs.Flight.phase_name p) (float_of_int (a - b) *. 1e-9))
    Obs.Flight.all_phases (List.combine before after)

(* Counters of one engine and its store, for the per-layer report. *)
let add_engine t (m : Quantum.Metrics.t) (wal : Relational.Wal.stats) =
  let solver = m.Quantum.Metrics.solver_stats and cache = m.Quantum.Metrics.cache_stats in
  add_int t "core.forced_groundings" m.Quantum.Metrics.forced_groundings;
  add_int t "core.partition_merges" m.Quantum.Metrics.partition_merges;
  add_int t "core.governor_retries" m.Quantum.Metrics.governor_retries;
  add_int t "core.committed" m.Quantum.Metrics.committed;
  add_int t "solver.nodes" solver.Solver.Backtrack.nodes;
  add_int t "solver.candidates" solver.Solver.Backtrack.candidates;
  add_int t "solver.backtracks" solver.Solver.Backtrack.backtracks;
  add_int t "solver.extensions" cache.Solver.Cache.extensions;
  add_int t "solver.extension_hits" cache.Solver.Cache.extension_hits;
  add_int t "solver.full_solves" cache.Solver.Cache.full_solves;
  add_int t "relational.wal_records" wal.Relational.Wal.records;
  add_int t "relational.wal_bytes" wal.Relational.Wal.bytes;
  add_int t "relational.wal_syncs" wal.Relational.Wal.syncs

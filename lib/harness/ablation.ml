(* Ablation benches for the design choices DESIGN.md calls out:

   - solver backend: dynamic backtracking vs the statically-planned
     LIMIT-1 path (at several optimizer lookahead depths, reproducing the
     paper's `optimizer_search_depth` discussion);
   - serializability: Strict vs Semantic grounding;
   - the solution cache: extension hit rate and the cost of disabling it
     (approximated by the full-resolve backend path);
   - adaptive (phase-transition aware) grounding on/off. *)

module Qdb = Quantum.Qdb
module Runner = Workload.Runner
module Travel = Workload.Travel
module Flights = Workload.Flights

open Common

let small_spec scale seed =
  {
    Runner.default_spec with
    geometry =
      { Flights.flights = 1; rows_per_flight = (if scale.full then 17 else 8); dest = "LA" };
    pairs_per_flight = (if scale.full then 25 else 12);
    order = Travel.Random_order;
    seed;
  }

let run_backend_ablation scale =
  section "Ablation: solver backend (admission checks)";
  let backends =
    [ ("backtracking+cache", Qdb.Backtracking);
      ("limit-1 depth=1", Qdb.Limit_one_plan 1);
      ("limit-1 depth=3", Qdb.Limit_one_plan 3);
      ("limit-1 exhaustive", Qdb.Limit_one_plan max_int);
    ]
  in
  let header = [ "backend"; "total time"; "coordination" ] in
  let rows =
    List.map
      (fun (name, backend) ->
        let config = { Qdb.default_config with backend } in
        let outcomes =
          List.map
            (fun seed -> Runner.run (Runner.Quantum_engine config) (small_spec scale seed))
            (seeds scale)
        in
        let time = mean (List.map (fun o -> o.Runner.total_time_s) outcomes) in
        let coord = mean (List.map (fun o -> o.Runner.coordination_pct) outcomes) in
        [ name; Printf.sprintf "%.3fs" time; f1 coord ^ "%" ])
      backends
  in
  print_table ~header rows;
  Printf.printf
    "(expected: backtracking+cache fastest; limit-1 degrades as lookahead\n\
    \ shrinks — the paper's bad-query-plan anomaly)\n";
  rows

let run_serializability_ablation scale =
  section "Ablation: strict vs semantic serializability";
  let header = [ "mode"; "total time"; "coordination"; "groundings per read" ] in
  let modes = [ ("strict", Qdb.Strict); ("semantic", Qdb.Semantic) ] in
  let rows =
    List.map
      (fun (name, serializability) ->
        let config = { Qdb.default_config with serializability } in
        let spec seed = { (small_spec scale seed) with read_fraction = 0.3 } in
        let outcomes =
          List.map (fun seed -> Runner.run (Runner.Quantum_engine config) (spec seed)) (seeds scale)
        in
        let time = mean (List.map (fun o -> o.Runner.total_time_s) outcomes) in
        let coord = mean (List.map (fun o -> o.Runner.coordination_pct) outcomes) in
        (* strict grounds whole prefixes, so more groundings are forced *)
        [ name; Printf.sprintf "%.3fs" time; f1 coord ^ "%"; "-" ])
      modes
  in
  print_table ~header rows;
  Printf.printf
    "(expected: semantic preserves more coordination under reads because it\n\
    \ grounds only the read transaction, not its whole arrival prefix)\n";
  rows

let run_adaptive_ablation scale =
  section "Ablation: adaptive (phase-transition aware) grounding";
  let header = [ "policy"; "total time"; "coordination" ] in
  let rows =
    List.map
      (fun (name, adaptive) ->
        let config = { Qdb.default_config with adaptive; adaptive_slack = 1.5 } in
        let outcomes =
          List.map
            (fun seed -> Runner.run (Runner.Quantum_engine config) (small_spec scale seed))
            (seeds scale)
        in
        let time = mean (List.map (fun o -> o.Runner.total_time_s) outcomes) in
        let coord = mean (List.map (fun o -> o.Runner.coordination_pct) outcomes) in
        [ name; Printf.sprintf "%.3fs" time; f1 coord ^ "%" ])
      [ ("off", false); ("on", true) ]
  in
  print_table ~header rows;
  Printf.printf
    "(expected: adaptive grounding trades some coordination for faster\n\
    \ response as the seat pool approaches exhaustion — Section 6)\n";
  rows

let run_cache_capacity_ablation scale =
  section "Ablation: solution-cache capacity (Section 4's multi-solution strategy)";
  let header = [ "capacity"; "extension hit rate"; "full solves"; "total time" ] in
  let rows =
    List.map
      (fun capacity ->
        let config = { Qdb.default_config with cache_capacity = capacity } in
        let seed = List.hd (seeds scale) in
        let store = Flights.fresh_store (small_spec scale seed).Runner.geometry in
        let qdb = Qdb.create ~config store in
        let rng = Workload.Prng.create seed in
        let ops, _ = Runner.build_ops { (small_spec scale seed) with Runner.read_fraction = 0.2 } rng in
        let t0 = Obs.Mclock.now_ns () in
        List.iter
          (fun op ->
            match op with
            | Runner.Book u -> ignore (Qdb.submit qdb (Travel.entangled_txn u))
            | Runner.Read_seat u -> ignore (Qdb.read qdb (Travel.seat_query u)))
          ops;
        ignore (Qdb.ground_all qdb);
        let dt = Obs.Mclock.elapsed_s t0 in
        let cs = (Qdb.metrics qdb).Quantum.Metrics.cache_stats in
        let rate =
          if cs.Solver.Cache.extensions = 0 then 0.
          else
            100.
            *. float_of_int cs.Solver.Cache.extension_hits
            /. float_of_int cs.Solver.Cache.extensions
        in
        [ string_of_int capacity; f1 rate ^ "%";
          string_of_int cs.Solver.Cache.full_solves; Printf.sprintf "%.3fs" dt ])
      [ 1; 2; 4; 8 ]
  in
  print_table ~header rows;
  Printf.printf
    "(more cached solutions absorb more admission checks; the paper proposed
    \ this strategy for a background process but did not implement it)
";
  rows

let run_cache_stats scale =
  section "Ablation: solution-cache amortization (Section 4)";
  let seed = List.hd (seeds scale) in
  let store = Flights.fresh_store (small_spec scale seed).Runner.geometry in
  let qdb = Qdb.create store in
  let rng = Workload.Prng.create seed in
  let ops, _ = Runner.build_ops (small_spec scale seed) rng in
  List.iter
    (fun op ->
      match op with
      | Runner.Book u -> ignore (Qdb.submit qdb (Travel.entangled_txn u))
      | Runner.Read_seat u -> ignore (Qdb.read qdb (Travel.seat_query u)))
    ops;
  ignore (Qdb.ground_all qdb);
  let cstats = (Qdb.metrics qdb).Quantum.Metrics.cache_stats in
  let header = [ "extensions"; "extension hits"; "full solves"; "hit rate" ] in
  let hit_rate =
    if cstats.Solver.Cache.extensions = 0 then 0.
    else
      100.
      *. float_of_int cstats.Solver.Cache.extension_hits
      /. float_of_int cstats.Solver.Cache.extensions
  in
  print_table ~header
    [ [ string_of_int cstats.Solver.Cache.extensions;
        string_of_int cstats.Solver.Cache.extension_hits;
        string_of_int cstats.Solver.Cache.full_solves; f1 hit_rate ^ "%" ] ];
  Printf.printf "(the cache absorbs nearly every admission check, as Section 4 intends)\n";
  cstats

(* Composed-body growth: how the invariant formula widens as transactions
   stay pending — the quantity behind the prototype's 61-join MySQL
   ceiling and the paper's discussion of join-heavy satisfiability
   queries (Sections 4 and 6). *)
let run_formula_growth _scale =
  section "Composed-body growth under In-Order arrivals (the 61-join ceiling)";
  let spec =
    { Runner.default_spec with Runner.order = Travel.In_order; seed = 4242 }
  in
  let store = Flights.fresh_store spec.Runner.geometry in
  let qdb = Qdb.create ~config:{ Qdb.default_config with k = 61 } store in
  let rng = Workload.Prng.create spec.Runner.seed in
  let ops, _ = Runner.build_ops spec rng in
  let samples = ref [] in
  List.iteri
    (fun i op ->
      (match op with
       | Runner.Book u -> ignore (Qdb.submit qdb (Travel.entangled_txn u))
       | Runner.Read_seat u -> ignore (Qdb.read qdb (Travel.seat_query u)));
      if i mod 10 = 9 then begin
        let widest =
          List.fold_left
            (fun acc (pending, stats) -> max acc (pending, stats))
            (0, Logic.Formula.stats Logic.Formula.tru)
            (Qdb.partition_stats qdb)
        in
        samples := (i + 1, widest) :: !samples
      end)
    ops;
  ignore (Qdb.ground_all qdb);
  let header = [ "after txn"; "max pending"; "body atoms (joins)"; "or-branches"; "vars" ] in
  let rows =
    List.rev_map
      (fun (i, (pending, stats)) ->
        [ string_of_int i; string_of_int pending;
          string_of_int (stats.Logic.Formula.atoms + stats.Logic.Formula.negative_atoms);
          string_of_int stats.Logic.Formula.or_branches;
          string_of_int stats.Logic.Formula.variables ])
      !samples
  in
  print_table ~header rows;
  Printf.printf
    "(the prototype force-grounds when a composed body would exceed MySQL's\n\
    \ 61-relation join ceiling; the k knob exists exactly because this width\n\
    \ grows with the number of pending transactions)\n";
  rows

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), runs the ablation benches, and finishes with
   Bechamel micro-benchmarks of the engine's core operations.

   Usage:  dune exec bench/main.exe [-- --full] [-- --only fig5,fig6,...]
                                    [-- --csv results/]

   Default sizes are scaled down to finish in minutes; [--full] switches
   to the paper's sizes (and 5-run averages). *)

module Common = Harness.Common
module Experiments = Harness.Experiments
module Ablation = Harness.Ablation
module Calendar_exp = Harness.Calendar_exp
module Admission = Harness.Admission

let parse_args () =
  let full = ref false in
  let only = ref [] in
  let args = Array.to_list Sys.argv in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      go rest
    | "--only" :: spec :: rest ->
      only := String.split_on_char ',' spec;
      go rest
    | "--csv" :: dir :: rest ->
      Common.csv_dir := Some dir;
      go rest
    | _ :: rest -> go rest
  in
  go args;
  let scale = if !full then Common.paper_scale else Common.default_scale in
  (scale, !only)

let wanted only name = only = [] || List.mem name only

(* -- Bechamel micro-benchmarks --------------------------------------------- *)

module Micro = struct
  module Value = Relational.Value
  module Rtxn = Quantum.Rtxn
  module Qdb = Quantum.Qdb
  open Logic

  (* Fixtures shared by the micro benches. *)
  let geometry = { Workload.Flights.flights = 1; rows_per_flight = 17; dest = "LA" }
  let db_fixture () = Relational.Store.db (Workload.Flights.fresh_store geometry)

  let atom_pair =
    let f = Term.V (Term.fresh_var "f") and s = Term.V (Term.fresh_var "s") in
    let f2 = Term.V (Term.fresh_var "f2") and s2 = Term.V (Term.fresh_var "s2") in
    ( Atom.make "Available" [ f; s ],
      Atom.make "Available" [ f2; Term.int 3 ] |> fun a2 ->
      (Atom.make "Available" [ f; s ], a2) |> fun _ ->
      (Atom.make "Available" [ f; s ], Atom.make "Available" [ f2; s2 ]) )

  let users = Workload.Travel.make_users ~flights:1 ~pairs_per_flight:10

  let pending_sequence =
    List.mapi
      (fun i u -> { (Rtxn.freshen (Workload.Travel.entangled_txn u)) with Rtxn.id = i })
      users

  let composed db =
    Quantum.Compose.body_of_sequence ~key_of:(Quantum.Compose.resolver_of_db db)
      pending_sequence

  (* Gauge divisor for compose/20-txn-body: top-level conjuncts of the
     composed body, so the exported figure is ns per produced clause. *)
  let compose_clause_count =
    lazy (List.length (Formula.conjuncts (composed (db_fixture ()))))

  (* Streaming candidate enumeration (the solver hot path): drain
     [Table.lookup_seq] over the full Available table in pkey order.
     [enumerate_count] is the gauge divisor — candidates per run. *)
  let enumerate_table = lazy (Relational.Database.table (db_fixture ()) "Available")
  let enumerate_count = lazy (Relational.Table.cardinality (Lazy.force enumerate_table))

  (* A prepared in-memory log for the replay bench: one schema DDL plus
     512 single-insert batches (3 records each — Begin/Op/Commit). *)
  let replay_batches = 512
  let replay_records = 1 + (3 * replay_batches)

  let replay_backend () =
    let module Wal = Relational.Wal in
    let backend = Wal.mem_backend () in
    let wal = Wal.create backend in
    let schema = Workload.Flights.bookings_schema in
    Wal.log wal (Wal.Create_table schema);
    for i = 0 to replay_batches - 1 do
      ignore
        (Wal.log_batch wal
           [ Relational.Database.Insert
               ( schema.Relational.Schema.name,
                 [| Relational.Value.Str (Printf.sprintf "u%d" i);
                    Relational.Value.Int 0; Relational.Value.Int i |] ) ])
    done;
    backend

  let tests () =
    let db = db_fixture () in
    let formula = composed db in
    let a1, a2 = snd atom_pair in
    let replay_log = replay_backend () in
    let open Bechamel in
    [ Test.make ~name:"unify/mgu" (Staged.stage (fun () -> Logic.Unify.mgu a1 a2));
      Test.make ~name:"unify/predicate" (Staged.stage (fun () -> Logic.Unify.predicate a1 a2));
      Test.make ~name:"compose/20-txn-body"
        (Staged.stage (fun () -> ignore (composed db)));
      Test.make ~name:"solve/20-txn-body"
        (Staged.stage (fun () -> ignore (Solver.Backtrack.solve db formula)));
      Test.make ~name:"solver/enumerate"
        (Staged.stage (fun () ->
             (* One full streamed scan in primary-key order — the
                candidate source of every solver choice point. *)
             let table = Lazy.force enumerate_table in
             ignore
               (Seq.fold_left (fun n _ -> n + 1) 0
                  (Relational.Table.lookup_seq table [| None; None |]))));
      Test.make ~name:"wal/replay"
        (Staged.stage (fun () ->
             (* Full recovery of a 512-batch log: decode + checksum +
                sequence check + apply, per run. *)
             ignore (Relational.Wal.replay (Relational.Wal.create replay_log))));
      Test.make ~name:"admission/submit+reject-cycle"
        (Staged.stage (fun () ->
             (* One full admission check against a standing partition. *)
             let store = Workload.Flights.fresh_store geometry in
             let qdb = Qdb.create store in
             List.iter
               (fun u -> ignore (Qdb.submit qdb (Workload.Travel.plain_txn u)))
               (List.filteri (fun i _ -> i < 5) users)));
    ]

  (* Runs the benches, prints the table, and returns the per-operation
     ns/run estimates so main can export them as registry gauges. *)
  let run () =
    Common.section "Micro-benchmarks (Bechamel)";
    let open Bechamel in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    let grouped = Test.make_grouped ~name:"core" (tests ()) in
    let raw = Benchmark.all cfg [ instance ] grouped in
    let analyzed = Analyze.all ols instance raw in
    let estimates =
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> (name, est) :: acc
          | Some _ | None -> acc)
        analyzed []
    in
    let rows =
      List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns/run" ns ])
        (List.sort compare estimates)
    in
    Common.print_table ~header:[ "operation"; "time" ] rows;
    estimates
end

let () =
  let scale, only = parse_args () in
  Printf.printf "quantum-db benchmark harness (%s scale, %d run(s) per point)\n%!"
    (if scale.Common.full then "paper" else "reduced")
    scale.Common.runs;
  if wanted only "table1" then ignore (Experiments.run_table1 scale);
  if wanted only "fig5" then ignore (Experiments.run_fig5 scale);
  if wanted only "fig6" then ignore (Experiments.run_fig6 scale);
  if wanted only "fig7" || wanted only "table2" then
    ignore (Experiments.run_fig7_and_table2 scale);
  if wanted only "fig8" || wanted only "fig9" then ignore (Experiments.run_fig89 scale);
  if wanted only "calendar" then ignore (Calendar_exp.run scale);
  if wanted only "ablation" then begin
    ignore (Ablation.run_backend_ablation scale);
    ignore (Ablation.run_serializability_ablation scale);
    ignore (Ablation.run_adaptive_ablation scale);
    ignore (Ablation.run_cache_capacity_ablation scale);
    ignore (Ablation.run_cache_stats scale);
    ignore (Ablation.run_formula_growth scale)
  end;
  (* Rejection-path smoke, opt-in: over-capacity workload asserting the
     rejection counters, rejected-outcome spans and flight-recorder
     records all fire; Harness.Rejection.run raises on any violation. *)
  if List.mem "rejection" only then ignore (Harness.Rejection.run ());
  (* Flash-crowd contention sweep, opt-in: over-capacity ticket-sale and
     hotel-overbooking crowds driven into the 10–50% rejection regime,
     plus one squeezed-governor point exercising [Overloaded]; records
     outcome counts and the accept/reject/overload latency split. *)
  if List.mem "contention" only then begin
    let r = Harness.Contention.run () in
    Harness.Contention.print_summary r;
    let dir = Option.value !Common.csv_dir ~default:"results" in
    ignore (Harness.Contention.write ~path:(Filename.concat dir "BENCH_contention.json") r)
  end;
  (* Pending-depth sweep for the incremental-admission path, also opt-in:
     each k runs with delta composition on and off and cross-checks the
     outcomes before recording. *)
  if List.mem "admission" only then begin
    let r = Admission.run () in
    Admission.print r;
    let dir = Option.value !Common.csv_dir ~default:"results" in
    ignore (Admission.write ~path:(Filename.concat dir "BENCH_admission.json") r)
  end;
  let micro_estimates = if wanted only "micro" then Micro.run () else [] in
  (* Telemetry export: every quantum run above merged its engine metrics
     into the workload runner's sink; snapshot it — plus any micro-bench
     estimates as gauges — into metrics.json next to the CSVs. *)
  let registry = Quantum.Metrics.snapshot Workload.Runner.metrics_sink in
  List.iter
    (fun (name, ns) ->
      Obs.Registry.set_gauge registry ("bench.micro." ^ name ^ ".ns_per_run") ns;
      if name = "core/wal/replay" then
        Obs.Registry.set_gauge registry "bench.micro.wal.replay.ns_per_record"
          (ns /. float_of_int Micro.replay_records);
      if name = "core/solver/enumerate" then
        Obs.Registry.set_gauge registry "bench.micro.solver.enumerate.ns_per_candidate"
          (ns /. float_of_int (Lazy.force Micro.enumerate_count));
      if name = "core/compose/20-txn-body" then
        Obs.Registry.set_gauge registry "bench.micro.compose.ns_per_clause"
          (ns /. float_of_int (Lazy.force Micro.compose_clause_count)))
    micro_estimates;
  ignore (Common.write_metrics registry);
  Printf.printf "\nAll benches complete.\n"

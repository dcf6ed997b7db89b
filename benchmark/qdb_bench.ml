(* The engine benchmark.

     qdb_bench --workload NAME|all --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) measures the end-to-end metrics and runs
   every correctness check.  A traced run (--trace 1) spends half its time
   untraced and half repeating the same inputs with the flight recorder
   and the span ring on; it reports the per-layer metrics of the traced
   half, the tracing overhead and the slowest admissions, and writes a
   Chrome trace under results/.  Either way the last line of standard
   output is one JSON object; the exit code is non-zero when a check
   fails. *)

module Json = Obs.Json

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : float;
  mutable spec_path : string;
  mutable print_digests : bool;
}

let parse_args () =
  let a =
    {
      workload = "";
      seed = 1;
      seconds = 20.;
      trace = false;
      scale = 1.;
      spec_path = "benchmark/workloads.json";
      print_digests = false;
    }
  in
  let specs =
    [ ("--workload", Arg.String (fun s -> a.workload <- s), "NAME workload to run, or all");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N seed the inputs are generated from");
      ("--seconds", Arg.Float (fun x -> a.seconds <- x), "S how long one run measures");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 per-layer traced run");
      ("--scale", Arg.Float (fun x -> a.scale <- x), "F shrink the inputs, for smoke runs");
      ("--spec", Arg.String (fun s -> a.spec_path <- s), "PATH workload definitions");
      ( "--print-digests",
        Arg.Unit (fun () -> a.print_digests <- true),
        " print each workload's input digest and exit" );
    ]
  in
  Arg.parse specs
    (fun extra -> raise (Arg.Bad ("unexpected argument " ^ extra)))
    "qdb_bench --workload NAME|all --seed N --seconds S --trace 0|1";
  a

(* -- Workloads ------------------------------------------------------------------- *)

let digest (spec : Spec.t) =
  match spec.Spec.shape with
  | Spec.Inproc s -> Inproc.digest spec s
  | Spec.Serve s -> Serve.digest spec s

(* Measure [spec] into [t] and return the rounds run.  A traced half
   repeats the untraced half's rounds: [replay] is their count. *)
let measure (spec : Spec.t) t ~seed ~seconds ~traced ~replay =
  match spec.Spec.shape with
  | Spec.Inproc s -> Inproc.measure s t ~seed ~seconds ~traced ~replay
  | Spec.Serve s ->
    Serve.measure s t ~seed ~seconds ~traced;
    1

(* -- Metrics ----------------------------------------------------------------------- *)

type metric = {
  name : string;
  unit : string;
  value : float option;  (** [None]: too few samples for this percentile *)
  note : string;
}

let ratio a b = if b = 0. then 0. else a /. b

(* The best cycle's reading; [None] when no cycle has enough samples. *)
let best ~lower f (t : Tally.t) =
  match List.filter_map f t.Tally.cycles with
  | [] -> None
  | v :: vs -> Some (List.fold_left (if lower then Float.min else Float.max) v vs)

let rate t = best ~lower:false (fun c -> Some (Sample.median_exn c.Tally.rates)) t

let end_to_end (t : Tally.t) =
  let samples f =
    Printf.sprintf "%d samples, best of %d cycle(s)"
      (List.fold_left (fun n c -> n + Sample.count (f c)) 0 t.Tally.cycles)
      (List.length t.Tally.cycles)
  in
  let latency name f p =
    let ms c = Option.map (fun s -> s *. 1e3) (Sample.percentile (f c) p) in
    { name; unit = "ms"; value = best ~lower:true ms t; note = samples f }
  in
  [ { name = "setup_s";
      unit = "s";
      value = Some (Sample.median_exn t.Tally.setup);
      note = Printf.sprintf "median of %d set-ups" (Sample.count t.Tally.setup);
    };
    { name = "ops_per_s"; unit = "ops/s"; value = rate t; note = samples (fun c -> c.Tally.rates) };
    latency "book_p50_ms" (fun c -> c.Tally.book) 0.5;
    latency "reply_p75_ms" (fun c -> c.Tally.reply) 0.75;
    { name = "coordination_pct";
      unit = "%";
      value = Some (100. *. ratio (float_of_int t.Tally.coordinated) (float_of_int t.Tally.coordination_max));
      note = Printf.sprintf "%d of %d travellers" t.Tally.coordinated t.Tally.coordination_max;
    };
  ]

let per_layer (t : Tally.t) ~overhead_pct =
  let l = Tally.layer t in
  let phase p = l ("phase." ^ p) in
  let phases_s =
    List.fold_left (fun acc p -> acc +. phase (Obs.Flight.phase_name p)) 0. Obs.Flight.all_phases
  in
  let engine = l "core.engine_s" in
  let unattributed = engine -. phases_s in
  let m name unit v = { name; unit; value = Some v; note = "" } in
  [ m "core.engine_s" "s" engine;
    m "core.submit_s" "s" (l "core.submit_s");
    m "core.unattributed_s" "s" unattributed;
    m "core.unattributed_pct" "%" (100. *. ratio unattributed engine);
    m "core.compose_s" "s" (phase "compose");
    m "core.composed_clauses_max" "count" (l "core.composed_clauses_max");
    m "core.ground_s" "s" (phase "ground");
    m "core.forced_groundings" "count" (l "core.forced_groundings");
    m "core.governor_s" "s" (phase "governor");
    m "core.governor_retries" "count" (l "core.governor_retries");
    m "core.pending_max" "count" (l "core.pending_max");
    m "core.partitions_max" "count" (l "core.partitions_max");
    m "core.partition_merges" "count" (l "core.partition_merges");
    m "core.parse_us" "us" (1e6 *. ratio (l "core.parse_s") (l "core.parses"));
    m "solver.solve_s" "s" (phase "solve");
    m "solver.nodes" "count" (l "solver.nodes");
    m "solver.nodes_per_op" "count" (ratio (l "solver.nodes") (l "core.requests"));
    m "solver.candidates" "count" (l "solver.candidates");
    m "solver.backtracks" "count" (l "solver.backtracks");
    m "solver.cache_s" "s" (phase "cache");
    m "solver.cache_hit_pct" "%" (100. *. ratio (l "solver.extension_hits") (l "solver.extensions"));
    m "solver.full_solves" "count" (l "solver.full_solves");
    m "relational.wal_s" "s" (phase "wal");
    m "relational.wal_records" "count" (l "relational.wal_records");
    m "relational.wal_bytes_per_commit" "B" (ratio (l "relational.wal_bytes") (l "core.committed"));
    m "relational.wal_syncs" "count" (l "relational.wal_syncs");
    m "net.batches" "count" (l "net.batches");
    m "net.mean_batch_size" "count" (ratio (l "net.acked") (l "net.batches"));
    m "net.syncs_per_s" "1/s" (ratio (l "net.batches") (l "net.phase_s"));
    m "trace_overhead_pct" "%" overhead_pct;
  ]

(* Readings printed with the traced report but not part of the result:
   times that some workloads never spend, and serve times from the
   server's bucketed histogram. *)
let extra_readings (t : Tally.t) =
  let l = Tally.layer t in
  let phase p = l ("phase." ^ p) in
  ("core.refill_s", phase "coordination" +. phase "freeze" +. phase "install" +. phase "merge")
  :: List.filter_map
       (fun name -> Option.map (fun v -> (name, v)) (Hashtbl.find_opt t.Tally.layers name))
       [ "core.read_s"; "core.close_s"; "net.server_p50_ms"; "net.server_p99_ms"; "net.wire_p50_ms";
         "net.generator_late_p99_ms"; "net.send_block_p99_ms" ]

(* -- Output ------------------------------------------------------------------------- *)

let print_metrics title metrics =
  print_endline title;
  List.iter
    (fun m ->
      let v = match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "refused" in
      Printf.printf "  %-32s %14s %-6s %s\n" m.name v m.unit m.note)
    metrics

let result_json ~correct ~attempted ~failed metrics =
  let value m = match m.value with Some v -> Json.Num v | None -> Json.Null in
  let metric m = (m.name, Json.Obj [ ("value", value m); ("unit", Json.Str m.unit) ]) in
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", Json.Obj (List.map metric metrics));
    ]

let print_traced_extras (t : Tally.t) =
  let engine = Tally.layer t "core.engine_s" in
  let phases =
    List.fold_left
      (fun acc p -> acc +. Tally.layer t ("phase." ^ Obs.Flight.phase_name p))
      0. Obs.Flight.all_phases
  in
  Printf.printf "flight phases cover %.1f%% of engine-call time\n" (100. *. ratio phases engine);
  List.iter (fun (name, v) -> Printf.printf "  %-32s %14.6g\n" name v) (extra_readings t);
  (* Every pass of a round records the same admissions; show each once. *)
  let seen = Hashtbl.create 16 in
  let slowest =
    List.filter
      (fun (r : Obs.Flight.record) ->
        (not (Hashtbl.mem seen r.Obs.Flight.label)) && (Hashtbl.replace seen r.Obs.Flight.label (); true))
      (Obs.Flight.top_slow 1000)
  in
  print_endline "slowest admissions (flight recorder, traced half):";
  List.iter
    (fun (r : Obs.Flight.record) ->
      let split =
        List.filter_map
          (fun p ->
            let ns = Obs.Flight.record_phase_ns r p in
            if ns = 0 then None
            else Some (Printf.sprintf "%s %.2f" (Obs.Flight.phase_name p) (float_of_int ns *. 1e-6)))
          Obs.Flight.all_phases
      in
      Printf.printf "  %-12s %-9s %9.2f ms  nodes %-8d %s\n" r.Obs.Flight.label r.Obs.Flight.outcome
        (float_of_int r.Obs.Flight.total_ns *. 1e-6)
        r.Obs.Flight.solver_nodes (String.concat ", " split))
    (List.filteri (fun i _ -> i < 10) slowest)

let write_trace name seed =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let path = Printf.sprintf "results/trace_%s_seed%d.json" name seed in
  Obs.Export.write_chrome_trace path (Obs.Trace.events ());
  Printf.printf "chrome trace: %s (%d events, %d dropped)\n" path (Obs.Trace.recorded ())
    (Obs.Trace.dropped ())

(* -- One workload ------------------------------------------------------------------- *)

exception Too_few_samples of string

let run_one args (spec : Spec.t) =
  let actual = digest spec in
  if actual <> spec.Spec.digest then begin
    Printf.eprintf
      "%s: input digest %s at seed %d does not match the recorded %s: the workload generator \
       changed, so results would not be comparable\n"
      spec.Spec.name actual spec.Spec.seed spec.Spec.digest;
    exit 3
  end;
  let spec = if args.scale = 1. then spec else Spec.scaled args.scale spec in
  let seed = args.seed in
  Printf.printf "workload %s, seed %d, %.1f s%s\n%!" spec.Spec.name seed args.seconds
    (if args.trace then ", traced" else "");
  let t0 = Obs.Mclock.now_ns () in
  let plain = Tally.create () in
  let metrics, tallies =
    if not args.trace then begin
      let rounds = measure spec plain ~seed ~seconds:args.seconds ~traced:false ~replay:None in
      Printf.printf "%d round(s) in %.2f s\n" rounds (Obs.Mclock.elapsed_s t0);
      let metrics = end_to_end plain in
      print_metrics "end-to-end (untraced):" metrics;
      (metrics, [ plain ])
    end
    else begin
      let spec = Spec.single_pass spec in
      let half = args.seconds /. 2. in
      let rounds = measure spec plain ~seed ~seconds:half ~traced:false ~replay:None in
      let traced = Tally.create ~check:plain.Tally.check () in
      Obs.Flight.enable ~capacity:65536 ();
      Obs.Trace.enable ();
      let (_ : int) = measure spec traced ~seed ~seconds:half ~traced:true ~replay:(Some rounds) in
      Obs.Trace.disable ();
      Obs.Flight.disable ();
      Printf.printf "%d round(s) untraced, the same traced, in %.2f s\n" rounds (Obs.Mclock.elapsed_s t0);
      let overhead_pct =
        match rate plain, rate traced with
        | Some p, Some t -> 100. *. (ratio p t -. 1.)
        | _ -> 0.
      in
      let metrics = per_layer traced ~overhead_pct in
      print_metrics "per-layer (traced half):" metrics;
      print_traced_extras traced;
      write_trace spec.Spec.name seed;
      (metrics, [ plain; traced ])
    end
  in
  let sum f = List.fold_left (fun n (t : Tally.t) -> n + f t) 0 tallies in
  let attempted = sum (fun t -> t.Tally.attempted) and failed = sum (fun t -> t.Tally.failed) in
  let check = plain.Tally.check in
  Printf.printf "checks: %d passed, %d failed; %d of %d operations failed\n"
    (check.Check.checked - check.Check.failed) check.Check.failed failed attempted;
  List.iter (fun msg -> Printf.eprintf "%s: check failed: %s\n" spec.Spec.name msg) (Check.failures check);
  List.iter (fun m -> if m.value = None && args.scale = 1. then raise (Too_few_samples m.name)) metrics;
  let correct = Check.ok check in
  print_endline (Json.to_string (result_json ~correct ~attempted ~failed metrics));
  correct

let () =
  let args = parse_args () in
  let specs = Spec.load args.spec_path in
  if args.print_digests then begin
    List.iter (fun (s : Spec.t) -> Printf.printf "%s %s\n" s.Spec.name (digest s)) specs;
    exit 0
  end;
  let chosen =
    if args.workload = "all" then specs
    else
      match List.filter (fun (s : Spec.t) -> s.Spec.name = args.workload) specs with
      | [] ->
        Printf.eprintf "unknown workload %S (known: %s)\n" args.workload
          (String.concat ", " (List.map (fun (s : Spec.t) -> s.Spec.name) specs));
        exit 2
      | s -> s
  in
  match List.for_all Fun.id (List.map (run_one args) chosen) with
  | true -> exit 0
  | false -> exit 1
  | exception Too_few_samples name ->
    Printf.eprintf "%s: fewer than %d samples lie beyond its rank; the run is too short\n" name
      Sample.min_beyond;
    exit 4

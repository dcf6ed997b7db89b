(* Command-line driver for the quantum database.

   Subcommands:
     exp    — regenerate one paper table/figure, the ablations, or 'all'
     demo   — the Mickey/Goofy walkthrough on a tiny flight
     shell  — interactive session: submit resource transactions in the
              Datalog-like notation, read/peek, inspect read impact,
              ground, print tables
     stats  — run a travel workload and print the engine's telemetry
              registry (pretty, prometheus or json); with --wal FILE,
              recover from that log instead and print the registry with
              the wal.recovery.* gauges; --top-slow N appends the N
              slowest admissions from the flight recorder
     profile — run a travel workload with the flight recorder on and
              print where admission time went: per-phase totals, the
              slowest per-admission records, and (with --slow-ms) the
              record + span dump of each admission over the threshold
     crashmonkey — deterministic crash/recover cycles with fault
              injection; exits 1 on any recovery-invariant violation;
              --actors N routes every engine call through an owning
              actor on a spawned domain; --server crashes the network
              front door instead
     chaos  — engine-wide fault injection (squeezed budgets, failed
              refill/recheck jobs), each cycle replayed inline and
              actor-routed; exits 1 on any violation
     scaling — the Figure-7 sweep: the same seeded workload through
              partition actors at each --domains count, asserting
              identical outcomes, writing the BENCH_scaling.json series
              (schema v4: per-phase breakdown, actor busy time,
              parallelism efficiency, contended companion points)
     serve / load — the TCP front door and its open-loop load generator
     bench diff — compare a fresh bench recording against a committed
              baseline and exit non-zero past the --gate threshold; the
              one regression comparator scripts/ci.sh calls for every
              committed BENCH_*.json
     bench server — the loopback server bench behind BENCH_server.json
   Every non-interactive subcommand takes --trace FILE to capture a
   Chrome trace_event JSON of the engine's spans.
   (micro-benchmarks live in bench/main.exe) *)

module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Flights = Workload.Flights
module Travel = Workload.Travel
module Common = Harness.Common
module Experiments = Harness.Experiments
module Ablation = Harness.Ablation

open Cmdliner

(* -- tracing ------------------------------------------------------------------ *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record engine trace events and write them to $(docv) as Chrome \
                 trace_event JSON (loadable in chrome://tracing or Perfetto).")

let with_trace file f =
  match file with
  | None -> f ()
  | Some path ->
    (* Fail before the run, not after: a --full experiment shouldn't spend
       minutes only to lose its trace to an unwritable path. *)
    (try close_out (open_out path)
     with Sys_error msg ->
       Printf.eprintf "qdb: cannot write trace file: %s\n" msg;
       exit 1);
    Obs.Trace.enable ();
    Fun.protect f ~finally:(fun () ->
        Obs.Export.write_chrome_trace path (Obs.Trace.events ());
        Printf.printf "(trace written to %s: %d event(s), %d overwritten)\n%!" path
          (Obs.Trace.recorded ()) (Obs.Trace.dropped ());
        Obs.Trace.disable ())

(* -- exp --------------------------------------------------------------------- *)

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Use the paper's full experiment sizes.")

let exp_names = [ "table1"; "fig5"; "fig6"; "fig7"; "table2"; "fig8"; "fig9"; "calendar"; "ablation"; "all" ]

let exp_arg =
  let doc =
    Printf.sprintf "Experiment to run: %s." (String.concat ", " exp_names)
  in
  Arg.(required & pos 0 (some (enum (List.map (fun n -> (n, n)) exp_names))) None
       & info [] ~docv:"EXPERIMENT" ~doc)

let run_exp name full trace =
  with_trace trace @@ fun () ->
  let scale = if full then Common.paper_scale else Common.default_scale in
  let pick wanted = name = "all" || name = wanted in
  if pick "table1" then ignore (Experiments.run_table1 scale);
  if pick "fig5" then ignore (Experiments.run_fig5 scale);
  if pick "fig6" then ignore (Experiments.run_fig6 scale);
  if pick "fig7" || pick "table2" then ignore (Experiments.run_fig7_and_table2 scale);
  if pick "fig8" || pick "fig9" then ignore (Experiments.run_fig89 scale);
  if pick "calendar" then ignore (Harness.Calendar_exp.run scale);
  if pick "ablation" then begin
    ignore (Ablation.run_backend_ablation scale);
    ignore (Ablation.run_serializability_ablation scale);
    ignore (Ablation.run_adaptive_ablation scale);
    ignore (Ablation.run_cache_capacity_ablation scale);
    ignore (Ablation.run_cache_stats scale);
    ignore (Ablation.run_formula_growth scale)
  end

let exp_cmd =
  let doc = "Regenerate a table or figure of the paper's evaluation." in
  Cmd.v (Cmd.info "exp" ~doc) Term.(const run_exp $ exp_arg $ full_flag $ trace_arg)

(* -- demo --------------------------------------------------------------------- *)

let run_demo trace =
  with_trace trace @@ fun () ->
  let geometry = { Flights.flights = 1; rows_per_flight = 2; dest = "LA" } in
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  print_endline "A flight to LA with two rows of three seats (0,1,2 / 3,4,5).";
  print_endline "";
  print_endline "Mickey books any seat, OPTIONALLY next to Goofy (who has not arrived):";
  let mickey = { Travel.name = "Mickey"; partner = "Goofy"; flight = 0 } in
  (match Qdb.submit qdb (Travel.entangled_txn mickey) with
   | Qdb.Committed id ->
     Printf.printf "  -> committed (id %d), seat NOT yet assigned (quantum state)\n" id
   | Qdb.Rejected r | Qdb.Overloaded r -> Printf.printf "  -> rejected: %s\n" r);
  Printf.printf "  pending transactions: %d; Bookings table rows: %d\n"
    (Qdb.pending_count qdb)
    (Relational.Table.cardinality (Relational.Database.table (Qdb.db qdb) "Bookings"));
  print_endline "";
  print_endline "Donald books a specific seat (seat 1):";
  let donald =
    Quantum.Datalog_parser.parse_txn ~label:"Donald"
      {|-Available(f, s), +Bookings("Donald", f, s) :-1 Available(f, s), f = 0, s = 1|}
  in
  (match Qdb.submit qdb donald with
   | Qdb.Committed _ -> print_endline "  -> committed; Mickey's options narrowed, nothing visible"
   | Qdb.Rejected r | Qdb.Overloaded r -> Printf.printf "  -> rejected: %s\n" r);
  print_endline "";
  print_endline "Goofy arrives; he wants to sit next to Mickey:";
  let goofy = { Travel.name = "Goofy"; partner = "Mickey"; flight = 0 } in
  (match Qdb.submit qdb (Travel.entangled_txn goofy) with
   | Qdb.Committed _ ->
     print_endline "  -> committed; the entangled pair grounds immediately"
   | Qdb.Rejected r | Qdb.Overloaded r -> Printf.printf "  -> rejected: %s\n" r);
  print_endline "";
  print_endline "Mickey checks in (a read — collapses any remaining uncertainty):";
  let answers = Qdb.read qdb (Travel.seat_query mickey) in
  List.iter (fun t -> Printf.printf "  Mickey's (flight, seat): %s\n" (Relational.Tuple.to_string t)) answers;
  (match Flights.booking_of (Qdb.db qdb) "Mickey", Flights.booking_of (Qdb.db qdb) "Goofy" with
   | Some (_, sm), Some (_, sg) ->
     Printf.printf "  Mickey seat %d, Goofy seat %d — adjacent: %b\n" sm sg
       (Flights.seats_adjacent (Qdb.db qdb) sm sg)
   | _ -> ());
  ignore (Qdb.ground_all qdb);
  print_endline "";
  print_endline "Final bookings:";
  Format.printf "%a@." Relational.Table.pp (Relational.Database.table (Qdb.db qdb) "Bookings")

let demo_cmd =
  let doc = "Walk through the paper's Mickey/Goofy scenario." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run_demo $ trace_arg)

(* -- stats -------------------------------------------------------------------- *)

(* Drive a travel workload against one engine instance, then print its
   telemetry registry (counters, latency histograms, live gauges, WAL
   counters) in the chosen format.  With --trace, the same run also yields
   a Chrome trace of every span the engine emitted. *)

let pp_registry registry =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, value) ->
      match value with
      | Obs.Registry.Counter n -> Buffer.add_string b (Printf.sprintf "%-28s %d\n" name n)
      | Obs.Registry.Gauge g -> Buffer.add_string b (Printf.sprintf "%-28s %g\n" name g)
      | Obs.Registry.Histogram h ->
        let module H = Obs.Histogram in
        if H.count h = 0 then Buffer.add_string b (Printf.sprintf "%-28s (empty)\n" name)
        else
          Buffer.add_string b
            (Printf.sprintf
               "%-28s count=%d p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n"
               name (H.count h)
               (H.quantile h 0.5 *. 1e6) (H.quantile h 0.9 *. 1e6)
               (H.quantile h 0.99 *. 1e6) (H.quantile h 0.999 *. 1e6)
               (H.max_value h *. 1e6)))
    (Obs.Registry.items registry);
  print_string (Buffer.contents b)

(* With --wal, skip the synthetic workload: recover an engine from the
   given log file (leniently — damaged tails are truncated, not fatal)
   and print its registry, which then carries the wal.recovery.* gauges
   alongside a human-readable recovery line. *)
let run_stats_wal format path =
  let backend = Relational.Wal.file_backend path in
  let qdb = Qdb.recover backend in
  let registry = Qdb.registry qdb in
  (match format with
   | `Pretty ->
     Printf.printf "recovered from %s:\n" path;
     (match Qdb.recovery_report qdb with
      | Some report -> Printf.printf "  %s\n\n" (Relational.Wal.report_to_string report)
      | None -> print_newline ());
     pp_registry registry
   | `Prometheus -> print_string (Obs.Export.prometheus registry)
   | `Json -> print_endline (Obs.Export.json_snapshot_string registry))

(* The shared workload driver for stats/profile: one engine, the op
   stream sized to seat capacity as in Figures 5/6 (2 users per pair,
   3 seats per row). *)
let run_travel_workload ~flights ~rows ~read_fraction =
  let geometry = { Flights.flights; rows_per_flight = rows; dest = "LA" } in
  let spec =
    { Workload.Runner.default_spec with
      geometry;
      read_fraction;
      order = Travel.Random_order;
      pairs_per_flight = 3 * rows / 2;
    }
  in
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  let rng = Workload.Prng.create spec.Workload.Runner.seed in
  let ops, _ = Workload.Runner.build_ops spec rng in
  List.iter
    (fun op ->
      match op with
      | Workload.Runner.Book u -> ignore (Qdb.submit qdb (Travel.entangled_txn u))
      | Workload.Runner.Read_seat u -> ignore (Qdb.read qdb (Travel.seat_query u)))
    ops;
  ignore (Qdb.ground_all qdb);
  (qdb, List.length ops)

(* -- flight-recorder reporting (shared by stats --top-slow and profile) ------- *)

module Flight = Obs.Flight

let us ns = float_of_int ns /. 1e3

(* The per-record "coord" column: everything around the admission pipeline
   proper — actor-task residue, merge and partition-round (cache refill,
   write recheck) time charged while the admission was open on its
   domain. *)
let coordination_ns (r : Flight.record) =
  List.fold_left
    (fun acc ph -> acc + Flight.record_phase_ns r ph)
    0
    [ Flight.Compute; Flight.Merge; Flight.Coordination ]

let print_top_slow n =
  match Flight.top_slow n with
  | [] -> print_endline "(flight recorder: no admission records)"
  | records ->
    Common.subsection
      (Printf.sprintf "%d slowest admission(s), per-phase self time in us"
         (List.length records));
    let rows =
      List.map
        (fun (r : Flight.record) ->
          let p ph = Common.f1 (us (Flight.record_phase_ns r ph)) in
          [ string_of_int r.Flight.seq;
            string_of_int r.Flight.txn_id;
            r.Flight.label;
            r.Flight.outcome;
            Common.f1 (us r.Flight.total_ns);
            p Flight.Compose;
            p Flight.Cache;
            p Flight.Solve;
            p Flight.Wal;
            p Flight.Ground;
            Common.f1 (us (coordination_ns r));
            string_of_int r.Flight.solver_nodes;
            string_of_int r.Flight.chunks_reused;
          ])
        records
    in
    Common.print_table
      ~header:
        [ "seq"; "txn"; "label"; "outcome"; "total"; "compose"; "cache"; "solve"; "wal";
          "ground"; "coord"; "nodes"; "reused" ]
      rows

let run_stats format trace flights rows read_fraction wal top_slow =
  match wal with
  | Some path -> run_stats_wal format path
  | None ->
  with_trace trace @@ fun () ->
  let recorder_was_on = Flight.on () in
  if top_slow > 0 && not recorder_was_on then Flight.enable ();
  Fun.protect
    ~finally:(fun () -> if top_slow > 0 && not recorder_was_on then Flight.disable ())
  @@ fun () ->
  let qdb, ops = run_travel_workload ~flights ~rows ~read_fraction in
  let registry = Qdb.registry qdb in
  (match format with
   | `Pretty ->
     Printf.printf "telemetry after %d operation(s) on %d flight(s) x %d seats:\n\n"
       ops flights (3 * rows);
     pp_registry registry
   | `Prometheus -> print_string (Obs.Export.prometheus registry)
   | `Json -> print_endline (Obs.Export.json_snapshot_string registry));
  if top_slow > 0 then begin
    print_newline ();
    print_top_slow top_slow
  end

let stats_cmd =
  let doc = "Run a travel workload and print the engine's telemetry registry." in
  let format_arg =
    let formats = [ ("pretty", `Pretty); ("prometheus", `Prometheus); ("json", `Json) ] in
    Arg.(value & opt (enum formats) `Pretty
         & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: pretty, prometheus or json.")
  in
  let read_fraction_arg =
    Arg.(value & opt float 0.2
         & info [ "read-fraction" ] ~doc:"Fraction of the op stream that is reads.")
  in
  let rows_arg = Arg.(value & opt int 17 & info [ "rows" ] ~doc:"Seat rows per flight.") in
  let flights_arg = Arg.(value & opt int 2 & info [ "flights" ] ~doc:"Number of flights.") in
  let wal_arg =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE"
             ~doc:"Instead of running a workload, recover from the WAL at $(docv) \
                   (lenient replay) and print the registry, including the \
                   wal.recovery.* gauges.")
  in
  let top_slow_arg =
    Arg.(value & opt int 0
         & info [ "top-slow" ] ~docv:"N"
             ~doc:"Also run the flight recorder and append the $(docv) slowest \
                   admissions with their per-phase time split.")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run_stats $ format_arg $ trace_arg $ flights_arg $ rows_arg
          $ read_fraction_arg $ wal_arg $ top_slow_arg)

(* -- profile ------------------------------------------------------------------- *)

(* Where did admission time go?  The stats workload under the flight
   recorder: per-phase totals against wall time, the slowest per-admission
   records, and — past --slow-ms — each slow admission's record with the
   trace spans of its window (spans need --trace too). *)

let print_phase_totals ~wall_s =
  Common.subsection "process-wide phase totals (exclusive self time)";
  let rows =
    List.filter_map
      (fun (ph, ns) ->
        if ns = 0 then None
        else
          Some
            [ Flight.phase_name ph;
              Printf.sprintf "%.4f" (float_of_int ns *. 1e-9);
              (if wall_s > 0. then Common.f1 (100. *. float_of_int ns *. 1e-9 /. wall_s)
               else "-");
            ])
      (Flight.totals ())
  in
  Common.print_table ~header:[ "phase"; "seconds"; "% of wall" ] rows;
  let attributed = float_of_int (Flight.total_attributed_ns ()) *. 1e-9 in
  Printf.printf "attributed %.3fs of %.3fs wall (%.1f%%)\n%!" attributed wall_s
    (if wall_s > 0. then 100. *. attributed /. wall_s else 0.)

let print_slow_dumps () =
  match Flight.slow_dumps () with
  | [] -> ()
  | dumps ->
    print_newline ();
    Common.subsection (Printf.sprintf "%d slow-admission dump(s)" (List.length dumps));
    List.iter
      (fun ((r : Flight.record), events) ->
        Printf.printf "txn %d (%s, %s): %.1fus total, %d solver node(s), %d span(s) in window\n"
          r.Flight.txn_id r.Flight.label r.Flight.outcome (us r.Flight.total_ns)
          r.Flight.solver_nodes (List.length events);
        List.iter
          (fun (e : Obs.Trace.event) ->
            Printf.printf "    %-28s %.1fus\n" e.Obs.Trace.name
              (Int64.to_float e.Obs.Trace.dur_ns /. 1e3))
          events)
      dumps

let run_profile trace flights rows read_fraction top slow_ms =
  with_trace trace @@ fun () ->
  let slow_threshold_ns =
    match slow_ms with
    | None -> Int64.max_int
    | Some ms -> Int64.of_float (ms *. 1e6)
  in
  Flight.enable ~slow_threshold_ns ();
  Fun.protect ~finally:(fun () -> Flight.disable ()) @@ fun () ->
  let t0 = Obs.Mclock.now_ns () in
  let _qdb, ops = run_travel_workload ~flights ~rows ~read_fraction in
  let wall_s = Obs.Mclock.elapsed_s t0 in
  Common.section
    (Printf.sprintf "admission profile: %d operation(s) on %d flight(s) x %d seats, %.3fs wall"
       ops flights (3 * rows) wall_s);
  print_phase_totals ~wall_s;
  print_newline ();
  print_top_slow top;
  Printf.printf "(%d admission(s) recorded, %d overwritten in the %d-record ring)\n%!"
    (Flight.recorded ()) (Flight.dropped ()) (Flight.capacity ());
  print_slow_dumps ()

let profile_cmd =
  let doc =
    "Run a travel workload under the flight recorder and print where admission time went."
  in
  let read_fraction_arg =
    Arg.(value & opt float 0.2
         & info [ "read-fraction" ] ~doc:"Fraction of the op stream that is reads.")
  in
  let rows_arg = Arg.(value & opt int 17 & info [ "rows" ] ~doc:"Seat rows per flight.") in
  let flights_arg = Arg.(value & opt int 2 & info [ "flights" ] ~doc:"Number of flights.") in
  let top_arg =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N" ~doc:"How many of the slowest admissions to print.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Dump the record and trace-span window of every admission slower \
                   than $(docv) milliseconds (combine with --trace for spans).")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run_profile $ trace_arg $ flights_arg $ rows_arg $ read_fraction_arg
          $ top_arg $ slow_ms_arg)

(* -- crashmonkey --------------------------------------------------------------- *)

(* Deterministic crash/recover torture: every cycle crashes a live engine
   at a PRNG-chosen WAL append with a PRNG-chosen damage mode, recovers,
   and checks the recovery contract.  Exit 1 on any violation, so CI can
   gate on it. *)

let run_crashmonkey cycles seed actors server =
  if server then begin
    (* Server mode: live TCP sessions into a group-commit engine whose
       WAL rides a volatile page cache, crashes armed at PRNG-chosen
       sync boundaries — every acked admission must survive replay. *)
    let s = Workload.Crash_monkey.run_server ~cycles ~seed () in
    Format.printf "crash monkey, server mode (seed %d):@.%a@." seed
      Workload.Crash_monkey.pp_server s;
    match s.Workload.Crash_monkey.srv_violations with
    | [] -> ()
    | violations ->
      List.iter
        (fun (cycle, what) -> Printf.eprintf "violation in cycle %d: %s\n" cycle what)
        violations;
      exit 1
  end
  else begin
    let actors = if actors > 0 then Some actors else None in
    let s = Workload.Crash_monkey.run ~cycles ~seed ?actors () in
    Format.printf "crash monkey (seed %d%s):@.%a@." seed
      (match actors with
       | Some n -> Printf.sprintf ", actor-routed x%d" n
       | None -> "")
      Workload.Crash_monkey.pp s;
    match s.Workload.Crash_monkey.violations with
    | [] -> ()
    | violations ->
      List.iter
        (fun (cycle, what) -> Printf.eprintf "violation in cycle %d: %s\n" cycle what)
        violations;
      exit 1
  end

let crashmonkey_cmd =
  let doc =
    "Run deterministic crash/recover cycles with fault injection and check the \
     recovery invariants."
  in
  let cycles_arg =
    Arg.(value & opt int 200
         & info [ "cycles" ] ~docv:"N" ~doc:"Number of crash/recover cycles.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let actors_arg =
    Arg.(value & opt int 0
         & info [ "actors" ] ~docv:"N"
             ~doc:"Route every post-fixture engine call through an owning actor \
                   on a real spawned domain (unclamped $(docv)-actor runtime) — \
                   the injected crash must propagate across the domain boundary \
                   and the recovery contract must hold regardless.")
  in
  let server_arg =
    Arg.(value & flag
         & info [ "server" ]
             ~doc:"Crash the network front door instead: TCP sessions admit through \
                   the group-commit queue over a volatile write buffer, the crash \
                   arms at a PRNG-chosen sync, and recovery must show every acked \
                   admission durable (un-acked may vanish, never half-apply).")
  in
  Cmd.v (Cmd.info "crashmonkey" ~doc)
    Term.(const run_crashmonkey $ cycles_arg $ seed_arg $ actors_arg $ server_arg)

(* -- chaos --------------------------------------------------------------------- *)

(* Engine-wide chaos: every cycle injects solver-budget exhaustion
   (squeezed governors) and failed refill/recheck jobs, runs inline and
   again through an actor on a spawned domain, and checks the survival
   contract — faults absorbed, bit-identical outcomes, squeezed
   rejections genuine, [Overloaded] side-effect-free.  Exit 1 on any
   violation, so CI can gate on it. *)

let run_chaos cycles seed =
  let s = Workload.Chaos.run ~cycles ~seed () in
  Format.printf "chaos (seed %d):@.%a@." seed Workload.Chaos.pp s;
  match s.Workload.Chaos.violations with
  | [] -> ()
  | violations ->
    List.iter
      (fun (cycle, what) -> Printf.eprintf "violation in cycle %d: %s\n" cycle what)
      violations;
    exit 1

let chaos_cmd =
  let doc =
    "Run deterministic engine-wide chaos cycles (budget exhaustion, failed refill and \
     recheck jobs) and check the survival and determinism invariants."
  in
  let cycles_arg =
    Arg.(value & opt int 100
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Number of chaos cycles (each runs inline and actor-routed).")
  in
  let seed_arg =
    Arg.(value & opt int 1234 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  Cmd.v (Cmd.info "chaos" ~doc) Term.(const run_chaos $ cycles_arg $ seed_arg)

(* -- scaling ------------------------------------------------------------------- *)

let run_scaling trace repeats domains flights rows pairs seed out =
  with_trace trace @@ fun () ->
  let r = Harness.Scaling.run ~repeats ~domains_list:domains ~flights ~rows ~pairs ~seed () in
  Harness.Scaling.print r;
  ignore (Harness.Scaling.write ~path:out r)

let scaling_cmd =
  let doc =
    "Run the Figure-7 workload through partition actors once per domain count, check \
     the admission outcomes are identical, and write the scaling series as JSON."
  in
  let repeats_arg =
    Arg.(value & opt int 1
         & info [ "repeats" ] ~docv:"N"
             ~doc:"Run each point $(docv) times and keep the fastest (outcome \
                   counts are deterministic; only the clock varies).")
  in
  let domains_arg =
    Arg.(value & opt (list int) [ 1; 2; 4 ]
         & info [ "domains" ] ~docv:"N,N,..." ~doc:"Domain counts to sweep.")
  in
  let flights_arg =
    Arg.(value & opt int 10 & info [ "flights" ] ~doc:"Number of flights (shards).")
  in
  let rows_arg =
    Arg.(value & opt int 50 & info [ "rows" ] ~doc:"Seat rows per flight (3 seats each).")
  in
  let pairs_arg =
    Arg.(value & opt int 75 & info [ "pairs" ] ~doc:"User pairs per flight.")
  in
  let seed_arg =
    Arg.(value & opt int 1000 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let out_arg =
    Arg.(value & opt string "results/BENCH_scaling.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON series.")
  in
  Cmd.v (Cmd.info "scaling" ~doc)
    Term.(const run_scaling $ trace_arg $ repeats_arg $ domains_arg
          $ flights_arg $ rows_arg $ pairs_arg $ seed_arg $ out_arg)

(* -- serve / load --------------------------------------------------------------- *)

(* The network front door as a process: [serve] owns a store and the
   engine; [load] is the open-loop generator pointed at it from any
   other process.  Both default to the same 4x400 load shape so a bare
   `qdb_cli serve` and a bare `qdb_cli load` agree on the flight bands
   the sessions book into. *)

let run_serve host port sessions requests wal duration =
  let geometry = Harness.Server.geometry_for ~sessions ~requests_per_session:requests in
  let backend = Option.map Relational.Wal.file_backend wal in
  let store = Workload.Flights.fresh_store ?backend geometry in
  let server = Net.Server.start ~store (Net.Server.Tcp (host, port)) in
  (match Net.Server.address server with
   | Net.Server.Tcp (h, p) ->
     Printf.printf "qdb server listening on %s:%d (%d flights, wal: %s)\n%!" h p
       geometry.Workload.Flights.flights
       (Option.value ~default:"in-memory" wal)
   | Net.Server.Unix_sock p -> Printf.printf "qdb server listening on %s\n%!" p);
  let interrupted = Atomic.make false in
  let previous =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
  in
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) duration in
  let expired () =
    match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
  in
  while
    (not (Atomic.get interrupted))
    && (not (expired ()))
    && Net.Server.failure server = None
  do
    Unix.sleepf 0.1
  done;
  Sys.set_signal Sys.sigint previous;
  Net.Server.stop server;
  let gc = Net.Server.group_commit server in
  Printf.printf "server stopped: %d group-commit batches, %d acked, mean batch %.2f\n%!"
    (Net.Group_commit.batches gc)
    (Net.Group_commit.acked_durable gc)
    (Net.Group_commit.mean_batch_size gc);
  match Net.Server.failure server with
  | Some exn ->
    Printf.eprintf "engine failure: %s\n%!" (Printexc.to_string exn);
    exit 1
  | None -> ()

let sessions_arg =
  Arg.(value & opt int 4
       & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent sessions the load shape plans for.")

let requests_arg =
  Arg.(value & opt int 400
       & info [ "requests" ] ~docv:"N" ~doc:"Requests per session the load shape plans for.")

let serve_cmd =
  let doc =
    "Run the network front door: accept connections, admit transactions through the \
     group-commit queue, until Ctrl-C, $(b,--duration), or an engine failure."
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
  in
  let port_arg =
    Arg.(value & opt int 7790 & info [ "port" ] ~docv:"PORT" ~doc:"Bind port (0 picks one).")
  in
  let wal_arg =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE"
             ~doc:"Write-ahead log file (real fsyncs); in-memory when absent.")
  in
  let duration_arg =
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Stop gracefully after $(docv).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ host_arg $ port_arg $ sessions_arg $ requests_arg $ wal_arg
          $ duration_arg)

let run_load host port sessions requests hz seed =
  let stats =
    Harness.Server.load ~host ~port ~sessions ~requests_per_session:requests ~target_hz:hz
      ~seed
  in
  Harness.Server.print_load stats;
  if stats.Harness.Server.l_errors > 0 then exit 1

let load_cmd =
  let doc =
    "Drive a running server with the open-loop generator (target-rate arrivals) and \
     report client-side admission latency; exits 1 on any error response."
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")
  in
  let port_arg =
    Arg.(value & opt int 7790 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let hz_arg =
    Arg.(value & opt float 800. & info [ "hz" ] ~docv:"HZ" ~doc:"Per-session arrival rate.")
  in
  let seed_arg =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run_load $ host_arg $ port_arg $ sessions_arg $ requests_arg $ hz_arg
          $ seed_arg)

(* -- bench diff ---------------------------------------------------------------- *)

(* The one regression comparator.  scripts/ci.sh used to carry two
   copy-pasted inline gates (admission and scaling); both now call

     qdb_cli bench diff BASELINE CURRENT --gate PCT

   which checks, shared across schemas: same schema string, identical
   workload object, current recording deterministic.  Then per schema:

     qdb.bench.admission/v1 — the k=20 incremental/from-scratch cost
       ratio must not exceed the baseline's by more than PCT percent,
       and the k=20 incremental speedup must stay >= 2x;
     qdb.bench.scaling/v4 — the 1-domain ns/admission must not exceed
       the baseline's by more than PCT percent; every point carries a
       phases_s entry for every flight-recorder phase, attributing
       >= 95% of measured actor busy time; speedup_vs_1 >= 0.9 at every
       point (multicore wins are gravy; going *slower* with more
       domains fails); the contended companion series must show
       real rejections and real Overloaded outcomes; and solver_nodes,
       solver_candidates, committed and rejected are pinned exactly to
       the baseline point with the same domain count, the contended
       committed/rejected/overloaded counts to the baseline point with
       the same regime and domain count;
     qdb.bench.server/v1 — admission outcome counts pinned exactly to
       the baseline's (the load is seeded and per-flight-deterministic),
       zero error responses, mean group-commit batch size > 1 (the
       queue must actually group), accept/reject p50/p99/p999 splits
       present, and the accept-p99 admission latency must not exceed
       the baseline's by more than PCT percent.

   Exits 1 with a FAIL line on any violation, 0 with OK lines otherwise. *)

module Json = Obs.Json

let bench_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FAIL: %s\n%!" msg;
      exit 1)
    fmt

let bench_load label path =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> bench_fail "%s: %s" label msg
  in
  try Json.of_string text with Json.Parse_error msg -> bench_fail "%s (%s): %s" label path msg

let jstr label name j =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> bench_fail "%s: missing string field %S" label name

let jnum label name j =
  match Option.bind (Json.member name j) Json.to_number with
  | Some x -> x
  | None -> bench_fail "%s: missing numeric field %S" label name

let jseries label j =
  match Json.member "series" j with
  | Some (Json.List points) -> points
  | _ -> bench_fail "%s: missing \"series\" array" label

(* Admission v1: cost of the k-th admission, incremental over from-scratch. *)
let admission_rel_cost label ~k j =
  let find mode =
    List.find_opt
      (fun p ->
        Option.bind (Json.member "k" p) Json.to_number = Some (float_of_int k)
        && Option.bind (Json.member "mode" p) Json.to_str = Some mode)
      (jseries label j)
  in
  match find "incremental", find "from-scratch" with
  | Some inc, Some scratch ->
    let ni = jnum label "ns_per_admission" inc in
    let ns = jnum label "ns_per_admission" scratch in
    if ns <= 0. then bench_fail "%s: from-scratch ns_per_admission is %g at k=%d" label ns k;
    ni /. ns
  | _ -> bench_fail "%s: no k=%d incremental/from-scratch point pair" label k

let admission_speedup label ~k j =
  let points =
    match Json.member "speedup_vs_scratch" j with
    | Some (Json.List l) -> l
    | _ -> bench_fail "%s: missing \"speedup_vs_scratch\" array" label
  in
  match
    List.find_opt
      (fun p -> Option.bind (Json.member "k" p) Json.to_number = Some (float_of_int k))
      points
  with
  | Some p -> jnum label "x" p
  | None -> bench_fail "%s: no k=%d speedup point" label k

(* Scaling: ns/admission of the 1-domain point. *)
let scaling_base_cost label j =
  match
    List.find_opt
      (fun p -> Option.bind (Json.member "domains" p) Json.to_number = Some 1.)
      (jseries label j)
  with
  | Some p -> jnum label "ns_per_admission" p
  | None -> bench_fail "%s: no 1-domain point" label

let scaling_contended label j =
  match Json.member "contended" j with
  | Some (Json.List points) -> points
  | _ -> bench_fail "%s: missing \"contended\" series" label

(* Scaling v4 gates.  [attributed_pct]'s denominator is measured actor
   busy time, so the 95% floor is meaningful at every domain count.  The
   no-slowdown gate encodes the 1-core honesty rule: with the hardware
   clamp, extra requested domains must cost nothing (speedup ~1.0), and
   on multicore they must win; a small tolerance absorbs clock noise. *)
let scaling_v4_check label j =
  List.iter
    (fun p ->
      let domains = int_of_float (jnum label "domains" p) in
      let phases =
        match Json.member "phases_s" p with
        | Some (Json.Obj fields) -> fields
        | _ -> bench_fail "%s: %d-domain point has no \"phases_s\" breakdown" label domains
      in
      List.iter
        (fun ph ->
          let name = Flight.phase_name ph in
          if not (List.mem_assoc name phases) then
            bench_fail "%s: %d-domain phases_s lacks %S" label domains name)
        Flight.all_phases;
      let attributed = jnum label "attributed_pct" p in
      if attributed < 95. then
        bench_fail "%s: %d-domain point attributes only %.1f%% of busy time (floor: 95%%)"
          label domains attributed;
      let speedup = jnum label "speedup_vs_1" p in
      if speedup < 0.9 then
        bench_fail
          "%s: %d-domain point runs %.2fx vs 1 domain — more domains may not slow \
           admission down (floor: 0.90x)"
          label domains speedup)
    (jseries label j);
  let contended = scaling_contended label j in
  let some field =
    List.exists (fun p -> jnum label field p > 0.) contended
  in
  if not (some "rejected") then
    bench_fail "%s: no contended point with real rejections" label;
  if not (some "overloaded") then
    bench_fail "%s: no contended point with real Overloaded outcomes" label

(* Scaling v4 pins.  The workload is seeded and the search order fixed,
   so search effort and outcomes are deterministic: every current point
   must match, field for field, the baseline point with the same key
   (domain count; regime and domain count for the contended series). *)
let pin_points what ~key ~fields baseline_points current_points =
  List.iter
    (fun cp ->
      let k = key "current" cp in
      match List.find_opt (fun bp -> String.equal (key "baseline" bp) k) baseline_points with
      | None -> bench_fail "baseline has no %s point with %s" what k
      | Some bp ->
        List.iter
          (fun field ->
            let b = jnum "baseline" field bp and c = jnum "current" field cp in
            if b <> c then
              bench_fail "%s point %s: %s is %.0f, baseline pins %.0f" what k field c b)
          fields)
    current_points;
  List.length current_points

let scaling_v4_pins baseline current =
  let domains label p = Printf.sprintf "domains=%.0f" (jnum label "domains" p) in
  let regime label p =
    Printf.sprintf "regime=%s %s" (jstr label "regime" p) (domains label p)
  in
  let n =
    pin_points "series" ~key:domains
      ~fields:[ "solver_nodes"; "solver_candidates"; "committed"; "rejected" ]
      (jseries "baseline" baseline) (jseries "current" current)
  in
  let m =
    pin_points "contended" ~key:regime ~fields:[ "committed"; "rejected"; "overloaded" ]
      (scaling_contended "baseline" baseline)
      (scaling_contended "current" current)
  in
  Printf.printf
    "OK: solver nodes/candidates and committed/rejected match baseline at %d point(s); \
     contended outcomes match at %d point(s)\n"
    n m

let run_bench_diff baseline_path current_path gate =
  let baseline = bench_load "baseline" baseline_path in
  let current = bench_load "current" current_path in
  let schema = jstr "baseline" "schema" baseline in
  let schema_cur = jstr "current" "schema" current in
  if not (String.equal schema schema_cur) then
    bench_fail "schema mismatch: baseline %s vs current %s" schema schema_cur;
  (* Apples to apples: identical workload objects, field for field. *)
  (match Json.member "workload" baseline, Json.member "workload" current with
   | Some wb, Some wc ->
     if not (String.equal (Json.to_string wb) (Json.to_string wc)) then
       bench_fail "workload mismatch: baseline %s vs current %s" (Json.to_string wb)
         (Json.to_string wc)
   | _ -> bench_fail "missing \"workload\" object");
  (match Option.bind (Json.member "deterministic" current) (function
     | Json.Bool b -> Some b
     | _ -> None)
   with
   | Some true -> ()
   | _ -> bench_fail "current recording is not deterministic");
  let allowed = 1. +. (gate /. 100.) in
  let check_ratio what base cur =
    let ratio = if base > 0. then cur /. base else infinity in
    if ratio > allowed then
      bench_fail "%s regressed: %.1f vs baseline %.1f (%.2fx > allowed %.2fx)" what cur base
        ratio allowed;
    Printf.printf "OK: %s %.1f vs baseline %.1f (%.2fx <= %.2fx)\n" what cur base ratio
      allowed
  in
  (match schema with
   | "qdb.bench.admission/v1" ->
     let k = 20 in
     check_ratio
       (Printf.sprintf "k=%d incremental/from-scratch cost ratio (x1000)" k)
       (1000. *. admission_rel_cost "baseline" ~k baseline)
       (1000. *. admission_rel_cost "current" ~k current);
     let speedup = admission_speedup "current" ~k current in
     if speedup < 2.0 then
       bench_fail "k=%d incremental speedup %.2fx below the 2x floor" k speedup;
     Printf.printf "OK: k=%d incremental speedup %.2fx (floor 2x)\n" k speedup
   | "qdb.bench.scaling/v4" ->
     check_ratio "1-domain ns/admission"
       (scaling_base_cost "baseline" baseline)
       (scaling_base_cost "current" current);
     scaling_v4_check "current" current;
     scaling_v4_pins baseline current;
     Printf.printf
       "OK: every phase reported, attribution >= 95%% of busy, no slowdown at any domain \
        count (>= 0.90x), contended series has real rejections and overloads\n"
   | "qdb.bench.contention/v1" ->
     (* Outcome counts are deterministic (pigeonhole capacity arguments,
        fixed seeds) — pin them exactly, point by point.  Latency splits
        must be present but their values are never gated. *)
     let point_name label p =
       match Option.bind (Json.member "point" p) Json.to_str with
       | Some s -> s
       | None -> bench_fail "%s: contention point without a \"point\" name" label
     in
     let counts label p =
       ( int_of_float (jnum label "submissions" p),
         int_of_float (jnum label "committed" p),
         int_of_float (jnum label "rejected" p),
         int_of_float (jnum label "overloaded" p) )
     in
     let current_points = jseries "current" current in
     List.iter
       (fun bp ->
         let name = point_name "baseline" bp in
         match
           List.find_opt (fun cp -> String.equal (point_name "current" cp) name)
             current_points
         with
         | None -> bench_fail "current recording lacks contention point %S" name
         | Some cp ->
           let b = counts "baseline" bp and c = counts "current" cp in
           if b <> c then begin
             let s (su, co, re, ov) = Printf.sprintf "%d/%d/%d/%d" su co re ov in
             bench_fail
               "%s: outcome counts changed: %s vs baseline %s \
                (submitted/committed/rejected/overloaded)"
               name (s c) (s b)
           end;
           Printf.printf "OK: %s outcome counts match baseline\n" name)
       (jseries "baseline" baseline);
     let in_regime =
       List.exists
         (fun p ->
           let pct = jnum "current" "reject_pct" p in
           pct >= 10. && pct <= 50.)
         current_points
     in
     if not in_regime then
       bench_fail "no contention point lands in the 10-50%% rejection regime";
     List.iter
       (fun p ->
         let name = point_name "current" p in
         match Json.member "latency_us" p with
         | Some (Json.Obj fields) ->
           List.iter
             (fun split ->
               if not (List.mem_assoc split fields) then
                 bench_fail "%s: latency_us lacks the %S split" name split)
             [ "accept"; "reject"; "overload" ]
         | _ -> bench_fail "%s: missing \"latency_us\" split" name)
       current_points;
     Printf.printf
       "OK: >=1 point in the 10-50%% rejection regime; accept/reject/overload latency \
        split present everywhere\n"
   | "qdb.bench.server/v1" ->
     (* The load is seeded and every flight band is driven by exactly one
        session, so per-flight admission order — and with it the outcome
        counts — is deterministic: pin them exactly.  Latency is the one
        machine-dependent number, so only its accept-p99 is gated. *)
     let outcomes label j =
       match Json.member "outcomes" j with
       | Some o ->
         ( int_of_float (jnum label "committed" o),
           int_of_float (jnum label "rejected" o),
           int_of_float (jnum label "overloaded" o),
           int_of_float (jnum label "errors" o) )
       | None -> bench_fail "%s: missing \"outcomes\" object" label
     in
     let b = outcomes "baseline" baseline and c = outcomes "current" current in
     if b <> c then begin
       let s (co, re, ov, er) = Printf.sprintf "%d/%d/%d/%d" co re ov er in
       bench_fail
         "admission outcomes changed: %s vs baseline %s \
          (committed/rejected/overloaded/errors)"
         (s c) (s b)
     end;
     let _, _, _, errors = c in
     if errors <> 0 then bench_fail "%d error responses under clean load" errors;
     Printf.printf "OK: admission outcome counts match baseline\n";
     let gc_field name =
       match Json.member "group_commit" current with
       | Some g -> jnum "current" name g
       | None -> bench_fail "current: missing \"group_commit\" object"
     in
     let mean_batch = gc_field "mean_batch_size" in
     if mean_batch <= 1.0 then
       bench_fail "group commit never grouped: mean batch size %.2f (floor: > 1)" mean_batch;
     Printf.printf "OK: mean group-commit batch size %.2f > 1 (%d batches)\n" mean_batch
       (int_of_float (gc_field "batches"));
     let split label j which =
       match Json.member "latency_us" j with
       | Some l ->
         (match Json.member which l with
          | Some s -> s
          | None -> bench_fail "%s: latency_us lacks the %S split" label which)
       | None -> bench_fail "%s: missing \"latency_us\" object" label
     in
     List.iter
       (fun which ->
         let s = split "current" current which in
         List.iter
           (fun f -> ignore (jnum "current" f s))
           [ "count"; "mean"; "p50"; "p99"; "p999" ])
       [ "accept"; "reject" ];
     Printf.printf "OK: accept/reject p50/p99/p999 admission-latency splits present\n";
     check_ratio "accept p99 admission latency (us)"
       (jnum "baseline" "p99" (split "baseline" baseline "accept"))
       (jnum "current" "p99" (split "current" current "accept"))
   | other -> bench_fail "unsupported schema %S" other);
  Printf.printf "bench diff: %s within %.0f%% of %s\n%!" current_path gate baseline_path

let run_bench_server sessions requests hz seed out =
  let spec = { Harness.Server.sessions; requests_per_session = requests; target_hz = hz; seed } in
  let r = Harness.Server.bench ~spec () in
  Harness.Server.print r;
  ignore (Harness.Server.write ~path:out r)

let bench_cmd =
  let diff_cmd =
    let doc =
      "Compare a fresh bench recording against a committed baseline; exit 1 past the gate."
    in
    let baseline_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE" ~doc:"Committed baseline JSON.")
    in
    let current_arg =
      Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc:"Fresh recording JSON.")
    in
    let gate_arg =
      Arg.(value & opt float 25.
           & info [ "gate" ] ~docv:"PCT"
               ~doc:"Allowed headline-cost regression over the baseline, percent.")
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(const run_bench_diff $ baseline_arg $ current_arg $ gate_arg)
  in
  let server_cmd =
    let doc =
      "Run the loopback server bench: open-loop load over a real socket into the \
       group-commit queue, twice with the same seed, and write the \
       qdb.bench.server/v1 recording."
    in
    let hz_arg =
      Arg.(value & opt float 800. & info [ "hz" ] ~docv:"HZ" ~doc:"Per-session arrival rate.")
    in
    let seed_arg =
      Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
    in
    let out_arg =
      Arg.(value & opt string "results/BENCH_server.json"
           & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON recording.")
    in
    Cmd.v (Cmd.info "server" ~doc)
      Term.(const run_bench_server $ sessions_arg $ requests_arg $ hz_arg $ seed_arg $ out_arg)
  in
  let doc = "Bench-recording tooling (producers and regression comparison)." in
  Cmd.group (Cmd.info "bench" ~doc) [ diff_cmd; server_cmd ]

(* -- shell --------------------------------------------------------------------- *)

let shell_help =
  {|Commands:
  txn <datalog>     submit a resource transaction, e.g.
                    txn -Available(f,s), +Bookings("me",f,s) :-1 Available(f,s)
  read <query>      read (collapses impacted pending txns), e.g.
                    read (f,s) :- Bookings("me",f,s)
  peek <query>      read without fixing anything (witness view)
  impact <query>    show which pending txns a read would collapse
  ground <id>       fix the values of pending transaction <id>
  ground all        fix everything
  pending           list pending transactions
  show <table>      print a table
  tables            list tables
  help              this message
  quit              exit|}

let run_shell rows flights =
  let geometry = { Flights.flights; rows_per_flight = rows; dest = "LA" } in
  let store = Flights.fresh_store geometry in
  let qdb = Qdb.create store in
  Printf.printf
    "quantum-db shell — %d flight(s) x %d seats. Type 'help' for commands.\n%!"
    flights (3 * rows);
  let rec loop () =
    print_string "qdb> ";
    match read_line () with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      (try
         if line = "quit" || line = "exit" then raise Exit
         else if line = "help" then print_endline shell_help
         else if line = "tables" then
           List.iter print_endline (Relational.Database.table_names (Qdb.db qdb))
         else if line = "pending" then
           List.iter (fun t -> Printf.printf "%s\n" (Rtxn.to_string t)) (Qdb.pending qdb)
         else if line = "ground all" then begin
           let gs = Qdb.ground_all qdb in
           Printf.printf "grounded %d transaction(s)\n" (List.length gs)
         end
         else if String.length line > 7 && String.sub line 0 7 = "ground " then begin
           let id = int_of_string (String.trim (String.sub line 7 (String.length line - 7))) in
           let gs = Qdb.ground qdb id in
           Printf.printf "grounded %d transaction(s)\n" (List.length gs)
         end
         else if String.length line > 5 && String.sub line 0 5 = "show " then begin
           let name = String.trim (String.sub line 5 (String.length line - 5)) in
           match Relational.Database.find_table (Qdb.db qdb) name with
           | Some table -> Format.printf "%a@." Relational.Table.pp table
           | None -> Printf.printf "no such table: %s\n" name
         end
         else if String.length line > 4 && String.sub line 0 4 = "txn " then begin
           let txn =
             Quantum.Datalog_parser.parse_txn (String.sub line 4 (String.length line - 4))
           in
           match Qdb.submit qdb txn with
           | Qdb.Committed id -> Printf.printf "committed (id %d)\n" id
           | Qdb.Rejected reason | Qdb.Overloaded reason -> Printf.printf "rejected: %s\n" reason
         end
         else if String.length line > 5 && String.sub line 0 5 = "read " then begin
           let q =
             Quantum.Datalog_parser.parse_query (String.sub line 5 (String.length line - 5))
           in
           let answers = Qdb.read qdb q in
           if answers = [] then print_endline "(no answers)"
           else List.iter (fun t -> print_endline (Relational.Tuple.to_string t)) answers
         end
         else if String.length line > 5 && String.sub line 0 5 = "peek " then begin
           let q =
             Quantum.Datalog_parser.parse_query (String.sub line 5 (String.length line - 5))
           in
           let answers = Qdb.read ~policy:Qdb.Peek qdb q in
           if answers = [] then print_endline "(no answers)"
           else List.iter (fun t -> print_endline (Relational.Tuple.to_string t)) answers;
           print_endline "(nothing was fixed — these values may still change)"
         end
         else if String.length line > 7 && String.sub line 0 7 = "impact " then begin
           let q =
             Quantum.Datalog_parser.parse_query (String.sub line 7 (String.length line - 7))
           in
           match Qdb.read_impact qdb q with
           | [] -> print_endline "(this read would fix nothing)"
           | impacted ->
             Printf.printf "this read would force grounding of %d transaction(s):\n"
               (List.length impacted);
             List.iter (fun t -> print_endline ("  " ^ Rtxn.to_string t)) impacted
         end
         else if line = "" then ()
         else Printf.printf "unknown command (try 'help')\n"
       with
       | Exit -> raise Exit
       | Quantum.Datalog_parser.Syntax_error msg -> Printf.printf "syntax error: %s\n" msg
       | Rtxn.Ill_formed msg -> Printf.printf "ill-formed transaction: %s\n" msg
       | Failure msg -> Printf.printf "error: %s\n" msg);
      loop ()
  in
  (try loop () with Exit -> ());
  print_endline "bye."

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show engine debug logs.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let rows_arg =
  Arg.(value & opt int 2 & info [ "rows" ] ~doc:"Seat rows per flight.")

let flights_arg =
  Arg.(value & opt int 1 & info [ "flights" ] ~doc:"Number of flights.")

let shell_cmd =
  let doc = "Interactive quantum-database session over a travel database." in
  let run verbose rows flights =
    setup_logs verbose;
    run_shell rows flights
  in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const run $ verbose_flag $ rows_arg $ flights_arg)

(* -- main ---------------------------------------------------------------------- *)

let () =
  let doc = "Quantum databases: late-binding resource transactions (CIDR 2013 reproduction)." in
  let info = Cmd.info "qdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ exp_cmd; demo_cmd; shell_cmd; stats_cmd; profile_cmd; crashmonkey_cmd;
            chaos_cmd; scaling_cmd; serve_cmd; load_cmd; bench_cmd ]))

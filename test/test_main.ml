(* Aggregated test runner: one alcotest suite per subsystem. *)

let () =
  Alcotest.run "quantum_db"
    [ ("obs", Test_obs.suite);
      ("sexp", Test_sexp.suite);
      ("value+tuple", Test_value.suite);
      ("schema+table", Test_table.suite);
      ("database+wal+store", Test_database.suite);
      ("relalg", Test_relalg.suite);
      ("unify", Test_unify.suite);
      ("formula", Test_formula.suite);
      ("solver", Test_solver.suite);
      ("query", Test_query.suite);
      ("join-order+limit-one", Test_join_order.suite);
      ("compose", Test_compose.suite);
      ("qdb", Test_qdb.suite);
      ("possible-worlds", Test_possible_worlds.suite);
      ("recovery", Test_recovery.suite);
      ("wal-file", Test_wal_file.suite);
      ("crash-monkey", Test_crash_monkey.suite);
      ("partition", Test_partition.suite);
      ("engine-edge", Test_engine_edge.suite);
      ("incremental", Test_incremental.suite);
      ("parser", Test_parser.suite);
      ("sql-parser", Test_sql_parser.suite);
      ("calendar", Test_calendar.suite);
      ("cloud", Test_cloud.suite);
      ("workload", Test_workload.suite);
      ("net", Test_net.suite);
      ("par", Test_par.suite);
      ("actor", Test_actor.suite);
      ("governor", Test_governor.suite);
      ("profiler", Test_profiler.suite);
    ]

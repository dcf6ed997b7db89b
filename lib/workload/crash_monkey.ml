(* Crash monkey: deterministic crash/recover cycles over the full engine.

   Each cycle builds a travel database through a fault-injected WAL
   backend, drives a PRNG-scheduled workload (submits, collapsing reads,
   explicit groundings, checkpoints) through [Store]/[Qdb], kills the
   "process" at a random append with a random damage mode ([Fault]),
   recovers from the damaged log alone, and asserts the recovery
   contract:

   - the recovered database equals some prefix of the batches whose
     commit record reached the log (no committed batch is ever
     half-applied, no state is invented);
   - the recovered engine's composed-satisfiability invariant holds for
     every re-admitted pending transaction (Theorem 3.5 survives the
     crash);
   - the engine's own pending set agrees with the durable
     pending-transactions table.

   A pristine in-memory shadow of every line the engine *attempted* to
   append (damage-free, checkpoint swaps appended rather than replacing,
   so no history is lost) supplies the reference prefix states. *)

module Wal = Relational.Wal
module Database = Relational.Database
module Store = Relational.Store
module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn

type summary = {
  cycles : int;
  crashes : int;
  truncations : int; (* recoveries that dropped at least one record *)
  records_kept : int; (* summed over all recoveries *)
  records_dropped : int;
  clean_crashes : int;
  torn_crashes : int;
  flipped_crashes : int;
  mid_log_flips : int; (* cycles where a silent mid-log bit flip landed *)
  violations : (int * string) list; (* (cycle, what broke) *)
}

(* Mirror every attempted append into [pristine] while the damage-prone
   path goes to the wrapped backend.  Checkpoint segment swaps are
   *appended* to the pristine history (not swapped in), so earlier
   prefix states stay reconstructible even when the real swap is lost. *)
let tee pristine (inner : Wal.backend) =
  {
    inner with
    Wal.append =
      (fun line ->
        pristine.Wal.append line;
        inner.Wal.append line);
    rewrite =
      (fun lines ->
        List.iter pristine.Wal.append lines;
        inner.Wal.rewrite lines);
    reset =
      (fun () ->
        pristine.Wal.reset ();
        inner.Wal.reset ());
  }

(* Every database state at a batch/ddl/checkpoint boundary of the
   pristine history — the states a correct recovery may land on. *)
let prefix_states pristine =
  let db = ref (Database.create ()) in
  let pending = ref None in
  let snaps = ref [ Database.copy !db ] in
  let stable () = snaps := Database.copy !db :: !snaps in
  List.iteri
    (fun index line ->
      match Wal.decode_line ~index line with
      | Wal.Create_table schema ->
        ignore (Database.create_table !db schema);
        stable ()
      | Wal.Checkpoint image ->
        db := Wal.database_of_sexp image;
        pending := None;
        stable ()
      | Wal.Begin n -> pending := Some (n, [])
      | Wal.Op op ->
        (match !pending with
         | Some (n, ops) -> pending := Some (n, op :: ops)
         | None -> ())
      | Wal.Commit n ->
        (match !pending with
         | Some (m, ops) when m = n ->
           (match Database.apply_ops !db (List.rev ops) with
            | Ok () -> stable ()
            | Error _ -> ());
           pending := None
         | Some _ | None -> pending := None))
    (pristine.Wal.read_all ());
  !snaps

type cycle_outcome = {
  crashed : bool;
  damage : Fault.damage;
  flipped_mid_log : bool;
  kept : int;
  dropped : int;
  violation : string option;
}

(* In actor mode every post-fixture engine operation round-trips through
   the owning actor ([Actor.Runtime.call] on a real spawned domain —
   clamping is off so even a 1-core host exercises the hop), proving the
   injected [Fault.Crash] propagates across the domain boundary to the
   driver and that WAL append ordering — what the recovery contract
   checks — is unaffected by which domain ran the engine. *)
let run_cycle ?actors ~seed () =
  let rng = Prng.create seed in
  let fault_rng = Prng.create (seed lxor 0x5EED5EED) in
  let pristine = Wal.mem_backend () in
  let real = Wal.mem_backend () in
  let handle, faulty = Fault.wrap fault_rng real in
  let backend = tee pristine faulty in
  let geometry =
    { Flights.flights = 1; rows_per_flight = 2 + Prng.int rng 2; dest = "LA" }
  in
  let store = Flights.fresh_store ~backend geometry in
  let qdb = Qdb.create store in
  (* Fault schedule: arm only after the fixture is built, so the crash
     always lands inside the measured workload. *)
  let damage =
    match Prng.int rng 3 with
    | 0 -> Fault.Clean
    | 1 -> Fault.Torn
    | _ -> Fault.Flipped
  in
  let crash_after = Prng.int rng 45 in
  let flip_at =
    if crash_after > 2 && Prng.bool rng then Some (Prng.int rng (crash_after - 1)) else None
  in
  Fault.arm handle { Fault.crash_after; damage; flip_at };
  let users =
    Travel.make_users ~flights:1 ~pairs_per_flight:(3 * geometry.Flights.rows_per_flight / 2)
  in
  let users = Prng.shuffle_list rng users in
  let crashed = ref false in
  let rt =
    match actors with
    | Some n when n >= 1 ->
      Some (Actor.Runtime.create ~clamp:false ~actors:n ~make:(fun _ -> ()) ())
    | _ -> None
  in
  let exec f =
    match rt with
    | Some rt -> Actor.Runtime.call rt ~key:0 (fun () -> f ())
    | None -> f ()
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Actor.Runtime.shutdown rt)
    (fun () ->
      try
        List.iter
          (fun u ->
            (match Prng.int rng 12 with
             | 0 -> exec (fun () -> ignore (Qdb.read qdb (Travel.seat_query u)))
             | 1 -> exec (fun () -> Store.checkpoint store)
             | 2 ->
               exec (fun () ->
                   match Qdb.pending qdb with
                   | [] -> ()
                   | pending ->
                     let txn = List.nth pending (Prng.int rng (List.length pending)) in
                     ignore (Qdb.ground qdb txn.Rtxn.id))
             | _ -> ());
            let txn =
              if Prng.bool rng then Travel.entangled_txn u else Travel.plain_txn u
            in
            exec (fun () -> ignore (Qdb.submit qdb txn)))
          users;
        exec (fun () -> ignore (Qdb.ground_all qdb))
      with Fault.Crash -> crashed := true);
  let flipped_mid_log =
    match flip_at with
    | Some n -> n < handle.Fault.appends
    | None -> false
  in
  (* The process is dead; recover from the (possibly damaged) log alone. *)
  let qdb' = Qdb.recover real in
  let kept, dropped =
    match Qdb.recovery_report qdb' with
    | Some r -> (r.Wal.records_kept, r.Wal.records_dropped)
    | None -> (0, 0)
  in
  let violation =
    let recovered = Qdb.db qdb' in
    if not (List.exists (fun s -> Database.equal s recovered) (prefix_states pristine))
    then Some "recovered state is not a prefix of the committed batches"
    else if not (Qdb.invariant_holds qdb') then
      Some "composed-satisfiability invariant broken after recovery"
    else begin
      let table_rows =
        Relational.Table.cardinality (Database.table recovered Qdb.pending_table_name)
      in
      if table_rows <> Qdb.pending_count qdb' then
        Some
          (Printf.sprintf "pending table has %d row(s) but engine re-admitted %d" table_rows
             (Qdb.pending_count qdb'))
      else None
    end
  in
  { crashed = !crashed; damage; flipped_mid_log; kept; dropped; violation }

let run ?(cycles = 200) ?(seed = 42) ?actors () =
  let acc =
    ref
      {
        cycles = 0;
        crashes = 0;
        truncations = 0;
        records_kept = 0;
        records_dropped = 0;
        clean_crashes = 0;
        torn_crashes = 0;
        flipped_crashes = 0;
        mid_log_flips = 0;
        violations = [];
      }
  in
  for cycle = 0 to cycles - 1 do
    let o = run_cycle ?actors ~seed:(seed + (cycle * 7919)) () in
    let s = !acc in
    acc :=
      {
        cycles = s.cycles + 1;
        crashes = (s.crashes + if o.crashed then 1 else 0);
        truncations = (s.truncations + if o.dropped > 0 then 1 else 0);
        records_kept = s.records_kept + o.kept;
        records_dropped = s.records_dropped + o.dropped;
        clean_crashes =
          (s.clean_crashes + if o.crashed && o.damage = Fault.Clean then 1 else 0);
        torn_crashes = (s.torn_crashes + if o.crashed && o.damage = Fault.Torn then 1 else 0);
        flipped_crashes =
          (s.flipped_crashes + if o.crashed && o.damage = Fault.Flipped then 1 else 0);
        mid_log_flips = (s.mid_log_flips + if o.flipped_mid_log then 1 else 0);
        violations =
          (match o.violation with
           | Some v -> (cycle, v) :: s.violations
           | None -> s.violations);
      }
  done;
  let s = !acc in
  { s with violations = List.rev s.violations }

let pp fmt s =
  Format.fprintf fmt
    "@[<v>%d cycle(s): %d crash(es) (%d clean, %d torn, %d bit-flipped), %d mid-log flip(s)@,\
     %d recovery truncation(s); wal records kept %d, dropped %d@,\
     %d invariant violation(s)@]"
    s.cycles s.crashes s.clean_crashes s.torn_crashes s.flipped_crashes s.mid_log_flips
    s.truncations s.records_kept s.records_dropped (List.length s.violations)

(* -- Server mode ------------------------------------------------------------

   The durability contract of the network front door: the store sits on
   a volatile write buffer ([Fault.write_buffered] — appends reach
   stable storage only at a group-commit sync), concurrent client
   sessions pipeline submissions over real sockets, and the n-th sync
   kills the "process" mid-flush.  The oracle then recovers from the
   durable backend alone and demands:

   - every admission a client was ACKED survives recovery — as a
     re-admitted pending transaction or as its grounded booking
     (acks are sent only after the batch fsync, so this is exactly the
     server's contract);
   - the recovered state is a batch-prefix of the attempted history
     (an un-acked admission may vanish entirely but never half-apply);
   - the composed-satisfiability invariant holds after recovery.

   Which admissions end up acked depends on scheduling (batch formation
   races the crash), but the contract must hold at every interleaving —
   that is what makes it a contract. *)

module Server = Net.Server
module Client = Net.Client
module Frame = Net.Frame

type server_summary = {
  srv_cycles : int;
  srv_crashes : int;
  srv_acked : int; (* acked admissions checked against recovery *)
  srv_lost_unacked : int; (* un-acked submissions absent after recovery *)
  srv_batches : int; (* group-commit batches that synced *)
  srv_violations : (int * string) list;
}

type ack = {
  ack_label : string;
  ack_verdict : [ `Committed of int | `Rejected | `Overloaded ];
}

(* One session: pipeline every submission, then a Ground_all, and read
   verdicts until the server hangs up (the crash) or everything is
   answered.  Responses are FIFO per session, so sent labels zip with
   received frames. *)
let drive_session addr ~seed users =
  let client = Client.connect addr in
  let requests =
    List.map
      (fun u ->
        let entangled = Hashtbl.hash (seed, u.Travel.name, "txn") land 1 = 0 in
        let text =
          if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u
        in
        let partner = if entangled then Some u.Travel.partner else None in
        (u.Travel.name, Frame.Submit_datalog { Frame.label = u.Travel.name; partner; text }))
      users
    @ [ ("", Frame.Ground_all) ]
  in
  let sent =
    (* Stop at the first failed send: the server is gone. *)
    let rec fire acc = function
      | [] -> List.rev acc
      | (label, frame) :: rest ->
        if Client.send client frame then fire (label :: acc) rest else List.rev acc
    in
    fire [] requests
  in
  let acks = ref [] in
  (try
     List.iter
       (fun label ->
         match Client.recv client with
         | Ok (Frame.Committed id) ->
           acks := { ack_label = label; ack_verdict = `Committed id } :: !acks
         | Ok (Frame.Rejected _) -> acks := { ack_label = label; ack_verdict = `Rejected } :: !acks
         | Ok (Frame.Overloaded _) ->
           acks := { ack_label = label; ack_verdict = `Overloaded } :: !acks
         | Ok (Frame.Grounded _) | Ok (Frame.Error_msg _) -> ()
         | Ok _ -> ()
         | Error _ -> raise Exit)
       sent
   with Exit -> ());
  Client.close client;
  (sent, List.rev !acks)

let run_server_cycle ~seed () =
  let rng = Prng.create seed in
  let buf_rng = Prng.create (seed lxor 0xF100F5) in
  let pristine = Wal.mem_backend () in
  let durable = Wal.mem_backend () in
  let fh, buffered = Fault.write_buffered buf_rng durable in
  let backend = tee pristine buffered in
  let geometry = { Flights.flights = 2; rows_per_flight = 2; dest = "LA" } in
  let store = Flights.fresh_store ~backend geometry in
  backend.Wal.flush ();
  (* fixture durable before any fault is armed *)
  let config = { Server.default_config with Server.max_batch = 8; session_buffer = 16 } in
  let server = Server.start ~config ~store (Server.Tcp ("127.0.0.1", 0)) in
  let addr = Server.address server in
  let damage =
    match Prng.int rng 3 with
    | 0 -> Fault.Clean
    | 1 -> Fault.Torn
    | _ -> Fault.Flipped
  in
  (* Only a handful of group-commit flushes happen per cycle (one per
     engine drain), so aim the crash at the first few. *)
  Fault.arm_flush fh ~crash_at_flush:(Prng.int rng 3) ~damage;
  let pairs = 2 + Prng.int rng 2 in
  let users = Travel.make_users ~flights:geometry.Flights.flights ~pairs_per_flight:pairs in
  let flights_of f = List.filter (fun u -> u.Travel.flight = f) users in
  let results = Array.make geometry.Flights.flights ([], []) in
  let threads =
    List.init geometry.Flights.flights (fun f ->
        Thread.create (fun () -> results.(f) <- drive_session addr ~seed (flights_of f)) ())
  in
  List.iter Thread.join threads;
  (* [stop]'s final drain may itself hit the armed flush, so judge the
     crash only after shutdown finished. *)
  (try Server.stop server with Fault.Crash -> ());
  let crashed = Server.failure server <> None in
  let batches = Net.Group_commit.batches (Server.group_commit server) in
  let all_sent = Array.to_list results |> List.concat_map fst in
  let all_acked = Array.to_list results |> List.concat_map snd in
  (* The process is dead: recover from the durable backend alone. *)
  let qdb' = Qdb.recover durable in
  let recovered = Qdb.db qdb' in
  let pending' = Qdb.pending qdb' in
  let survives label id =
    List.exists (fun t -> t.Rtxn.id = id) pending'
    || Flights.booking_of recovered label <> None
  in
  let violation =
    if not (List.exists (fun s -> Database.equal s recovered) (prefix_states pristine)) then
      Some "recovered state is not a prefix of the committed batches"
    else if not (Qdb.invariant_holds qdb') then
      Some "composed-satisfiability invariant broken after recovery"
    else
      List.find_map
        (fun a ->
          match a.ack_verdict with
          | `Committed id when not (survives a.ack_label id) ->
            Some
              (Printf.sprintf "acked admission %d (%s) did not survive recovery" id
                 a.ack_label)
          | `Committed _ | `Rejected | `Overloaded -> None)
        all_acked
  in
  let acked_labels =
    List.filter_map
      (fun a -> match a.ack_verdict with `Committed _ -> Some a.ack_label | _ -> None)
      all_acked
  in
  let lost_unacked =
    (* Submissions the client never heard back about and recovery does
       not contain: allowed to vanish — counted to show the volatile
       buffer actually bites. *)
    List.length
      (List.filter
         (fun label ->
           label <> ""
           && (not (List.mem label acked_labels))
           && (not (List.exists (fun t -> t.Rtxn.label = label) pending'))
           && Flights.booking_of recovered label = None)
         all_sent)
  in
  (crashed, List.length acked_labels, lost_unacked, batches, violation)

let run_server ?(cycles = 20) ?(seed = 77) () =
  let acc =
    ref
      {
        srv_cycles = 0;
        srv_crashes = 0;
        srv_acked = 0;
        srv_lost_unacked = 0;
        srv_batches = 0;
        srv_violations = [];
      }
  in
  for cycle = 0 to cycles - 1 do
    let crashed, acked, lost, batches, violation =
      run_server_cycle ~seed:(seed + (cycle * 7919)) ()
    in
    let s = !acc in
    acc :=
      {
        srv_cycles = s.srv_cycles + 1;
        srv_crashes = (s.srv_crashes + if crashed then 1 else 0);
        srv_acked = s.srv_acked + acked;
        srv_lost_unacked = s.srv_lost_unacked + lost;
        srv_batches = s.srv_batches + batches;
        srv_violations =
          (match violation with
           | Some v -> (cycle, v) :: s.srv_violations
           | None -> s.srv_violations);
      }
  done;
  let s = !acc in
  { s with srv_violations = List.rev s.srv_violations }

let pp_server fmt s =
  Format.fprintf fmt
    "@[<v>%d server cycle(s): %d crash(es) mid-sync, %d group-commit batch(es)@,\
     %d acked admission(s) verified durable; %d un-acked submission(s) vanished (allowed)@,\
     %d contract violation(s)@]"
    s.srv_cycles s.srv_crashes s.srv_batches s.srv_acked s.srv_lost_unacked
    (List.length s.srv_violations)

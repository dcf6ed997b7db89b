(* serve_steady: the network front door under steady load.

   A [Net.Server] over a file-backed WAL with group commit runs in a
   domain of its own; the load generator runs in the main domain over one
   connection, with one sender thread and the main thread receiving.

   Traffic is a sequence of small flights.  Each flight's travellers (some
   with the partner condition, some plain) submit Datalog bookings in a
   random order, then one seat-map query collapses the flight, so the
   pending set stays bounded and the solver does little.  Frame decode,
   the engine queue, the group-commit fsync and ack writes dominate.

   A run is [cycles] cycles over one server, each of two phases:
   - open loop at the fixed rate [low_rps]: request [i] is due at
     [start + i/rate] and its latency is timed from then, not from when it
     was sent, so a stall also delays the requests behind it.  The
     latency metrics come from this phase.
   - closed loop with [window] requests outstanding over a fixed number of
     flights: the rate the server sustains, which is [ops_per_s].
   Each phase ends on a flight boundary and with a ping, whose pong (replies
   are in request order) tells the receiver that nothing is left. *)

module Server = Net.Server
module Client = Net.Client
module Frame = Net.Frame
module Group_commit = Net.Group_commit
module Qdb = Quantum.Qdb
module Metrics = Quantum.Metrics
module Datalog_parser = Quantum.Datalog_parser
module Travel = Workload.Travel
module Flights = Workload.Flights
module Prng = Workload.Prng
module Wal = Relational.Wal
module Store = Relational.Store
module Mclock = Obs.Mclock

(* -- Requests ------------------------------------------------------------------ *)

type request =
  | Book of Travel.user * Frame.submission
  | Seat_map of int  (** flight *)

let frame = function
  | Book (_, sub) -> Frame.Submit_datalog sub
  | Seat_map f -> Frame.Query (Printf.sprintf "(u, s) :- Bookings(u, %d, s)" f)

(* One flight's requests: its travellers in random order, then the seat
   map.  The first [s_entangled_pairs] pairs book with the partner
   condition. *)
let flight_requests (s : Spec.serve) rng users =
  let booking i u =
    let entangled = i / 2 < s.Spec.s_entangled_pairs in
    let text = if entangled then Travel.entangled_txn_text u else Travel.plain_txn_text u in
    let partner = if entangled then Some u.Travel.partner else None in
    Book (u, { Frame.label = u.Travel.name; partner; text })
  in
  let books = Prng.shuffle_list rng (List.mapi booking users) in
  books @ [ Seat_map (List.hd users).Travel.flight ]

(* Requests for [flights] flights, one array per flight. *)
let generate (s : Spec.serve) ~seed ~flights =
  let rng = Prng.create (seed * 1_000_003) in
  let users = Array.of_list (Travel.make_users ~flights ~pairs_per_flight:s.Spec.s_pairs) in
  let per_flight = 2 * s.Spec.s_pairs in
  Array.init flights (fun f ->
      Array.of_list (flight_requests s rng (Array.to_list (Array.sub users (f * per_flight) per_flight))))

let digest_flights = 200

let digest (spec : Spec.t) s =
  let line = function
    | Book (_, sub) ->
      Printf.sprintf "book %s %s %s" sub.Frame.label (Option.value ~default:"-" sub.Frame.partner)
        sub.Frame.text
    | Seat_map f -> Printf.sprintf "seats %d" f
  in
  Array.to_list (generate s ~seed:spec.Spec.seed ~flights:digest_flights)
  |> List.concat_map (fun flight -> List.map line (Array.to_list flight))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* -- The server, in its own domain ------------------------------------------------ *)

let wal_path = "results/serve_steady.wal"

type server_report = {
  metrics : Metrics.t;
  wal : Wal.stats;
  batches : int;
  acked_durable : int;
  server_accept : Obs.Histogram.t;
  phases_at_stop : int list;
  invariant : bool;
  pending_at_stop : int;
  failure : exn option;
}

type running = {
  address : Server.address;
  stop : unit -> server_report;
}

(* Fresh WAL file, travel store for [flights] flights, server started in a
   new domain.  [stop] shuts the server down gracefully and returns what
   it saw. *)
let start (s : Spec.serve) ~flights =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let geometry = { Flights.flights; rows_per_flight = s.Spec.s_rows; dest = "LA" } in
  let store = Flights.fresh_store ~backend:(Wal.file_backend wal_path) geometry in
  let m = Mutex.create () and c = Condition.create () in
  let started = ref None and stopping = ref false in
  let announce result =
    Mutex.lock m;
    started := Some result;
    Condition.broadcast c
  in
  let domain =
    Domain.spawn (fun () ->
        match Server.start ~store (Server.Tcp ("127.0.0.1", 0)) with
        | exception e ->
          announce (Error e);
          Mutex.unlock m;
          raise e
        | server ->
        announce (Ok (Server.address server));
        while not !stopping do
          Condition.wait c m
        done;
        Mutex.unlock m;
        Server.stop server;
        let phases_at_stop = Tally.phases () in
        let qdb = Server.qdb server and gc = Server.group_commit server in
        let report =
          {
            metrics = Qdb.metrics qdb;
            wal = Store.wal_stats store;
            batches = Group_commit.batches gc;
            acked_durable = Group_commit.acked_durable gc;
            server_accept = Obs.Registry.histogram (Server.registry server) "net.accept.latency";
            phases_at_stop;
            invariant = Qdb.invariant_holds qdb;
            pending_at_stop = Qdb.pending_count qdb;
            failure = Server.failure server;
          }
        in
        Store.close store;
        report)
  in
  Mutex.lock m;
  while !started = None do
    Condition.wait c m
  done;
  let result = Option.get !started in
  Mutex.unlock m;
  let address =
    match result with
    | Ok address -> address
    | Error e ->
      (try ignore (Domain.join domain) with _ -> ());
      raise e
  in
  let stop () =
    Mutex.lock m;
    stopping := true;
    Condition.broadcast c;
    Mutex.unlock m;
    Domain.join domain
  in
  { address; stop }

(* -- The load generator ------------------------------------------------------------ *)

type pace =
  | Open of float  (** requests per second, on an absolute schedule *)
  | Closed of int  (** requests outstanding *)

type reply = {
  req : request;
  latency_s : float;  (** from due (open loop) or sent (closed loop) to reply *)
  late_s : float;  (** sent minus due *)
  send_s : float;  (** time blocked in [Client.send] *)
  answer : Frame.t option;  (** [None]: the connection ended first *)
  at : int64;  (** when the reply arrived *)
}

type in_flight = {
  what : request option;  (** [None]: the closing ping *)
  due : int64;
  sent : int64;
  mutable blocked : int64;
}

let seconds_between a b = Int64.to_float (Int64.sub b a) *. 1e-9

(* Send whole flights from [flights.(first)] up to [flights.(upto - 1)], or
   until [seconds] have passed, then a ping.  Returns the replies in
   request order, the index of the next unused flight and the phase's
   wall time. *)
let drive client pace flights ~first ~upto ~seconds =
  let m = Mutex.create () in
  let outstanding = Queue.create () in
  let window = match pace with Closed n -> Some (Semaphore.Counting.make n) | Open _ -> None in
  let next_flight = ref first in
  let t0 = Mclock.now_ns () in
  let sender =
    Thread.create
      (fun () ->
        let i = ref 0 in
        let send what =
          Option.iter Semaphore.Counting.acquire window;
          let due =
            match pace with
            | Open rate ->
              let due = Int64.add t0 (Int64.of_float (float_of_int !i /. rate *. 1e9)) in
              let wait = Int64.sub due (Mclock.now_ns ()) in
              if wait > 0L then Thread.delay (Int64.to_float wait *. 1e-9);
              due
            | Closed _ -> Mclock.now_ns ()
          in
          incr i;
          let entry = { what; due; sent = Mclock.now_ns (); blocked = 0L } in
          Mutex.lock m;
          Queue.push entry outstanding;
          Mutex.unlock m;
          let ok =
            Client.send client (match what with Some r -> frame r | None -> Frame.Ping "end")
          in
          Mutex.lock m;
          entry.blocked <- Mclock.elapsed_ns entry.sent;
          Mutex.unlock m;
          ok
        in
        let rec loop () =
          if Mclock.elapsed_s t0 < seconds && !next_flight < min upto (Array.length flights) then begin
            let all_sent = Array.for_all (fun r -> send (Some r)) flights.(!next_flight) in
            incr next_flight;
            if all_sent then loop ()
          end
        in
        loop ();
        ignore (send None))
      ()
  in
  let replies = ref [] in
  let rec receive () =
    let answer = match Client.recv client with Ok f -> Some f | Error _ -> None in
    let now = Mclock.now_ns () in
    Mutex.lock m;
    let entry = Queue.take_opt outstanding in
    Mutex.unlock m;
    Option.iter Semaphore.Counting.release window;
    match entry with
    | None | Some { what = None; _ } -> answer <> None
    | Some ({ what = Some req; _ } as e) ->
      replies :=
        {
          req;
          latency_s = seconds_between e.due now;
          late_s = seconds_between e.due e.sent;
          send_s = Int64.to_float e.blocked *. 1e-9;
          answer;
          at = now;
        }
        :: !replies;
      if Obs.Trace.on () then
        Obs.Trace.complete ~cat:"bench" ~ts_ns:e.due ~dur_ns:(Int64.sub now e.due) "bench.request";
      if answer <> None then receive () else false
  in
  if not (receive ()) then begin
    (* The connection died: make the sender's sends fail fast and free
       any window slot it is waiting for. *)
    Client.close client;
    Option.iter (fun w -> Semaphore.Counting.release w; Semaphore.Counting.release w) window
  end;
  Thread.join sender;
  Queue.iter
    (fun e ->
      Option.iter
        (fun req -> replies := { req; latency_s = 0.; late_s = 0.; send_s = 0.; answer = None; at = 0L } :: !replies)
        e.what)
    outstanding;
  (List.rev !replies, !next_flight, Mclock.elapsed_s t0)

(* -- A run ------------------------------------------------------------------------- *)

let connect address =
  let client = Client.connect address in
  (match Client.hello client with
   | Ok _ -> ()
   | Error msg -> failwith ("serve_steady: handshake failed: " ^ msg));
  client

let row_of_text text = Scanf.sscanf_opt text "(%S, %d)" (fun u s -> (u, s))

(* What the client learned, checked against each other and against the
   recovered log once the server is gone. *)
type outcomes = {
  committed : (string, int) Hashtbl.t;  (** traveller -> flight *)
  refused : (string, unit) Hashtbl.t;
  seat_maps : (int, (string * int) list) Hashtbl.t;  (** flight -> (traveller, seat) *)
}

(* [cycle]: where the latency samples go; [None] in the closed phase,
   whose latencies include the queue the window keeps full. *)
let record (t : Tally.t) o ~(cycle : Tally.cycle option) (r : reply) =
  let check = t.Tally.check in
  t.Tally.attempted <- t.Tally.attempted + 1;
  let failed what =
    t.Tally.failed <- t.Tally.failed + 1;
    Check.expect check false what
  in
  let replied () = Option.iter (fun c -> Sample.add c.Tally.reply r.latency_s) cycle in
  match r.req, r.answer with
  | _, None -> failed (fun () -> "a request was never answered")
  | _, Some (Frame.Overloaded _) -> t.Tally.failed <- t.Tally.failed + 1
  | _, Some (Frame.Error_msg msg) -> failed (fun () -> "error reply: " ^ msg)
  | Book (u, _), Some (Frame.Committed _) ->
    replied ();
    Option.iter (fun c -> Sample.add c.Tally.book r.latency_s) cycle;
    Hashtbl.replace o.committed u.Travel.name u.Travel.flight
  | Book (u, _), Some (Frame.Rejected _) ->
    replied ();
    Hashtbl.replace o.refused u.Travel.name ()
  | Seat_map f, Some (Frame.Rows rows) ->
    replied ();
    let parsed = List.filter_map row_of_text rows in
    Check.expect check (List.length parsed = List.length rows) (fun () -> "unreadable seat-map row");
    Hashtbl.replace o.seat_maps f parsed
  | _, Some other -> failed (fun () -> "unexpected reply " ^ Frame.to_string other)

(* Per flight: the collapsed seat map holds exactly the travellers told
   Committed, each in a seat of their own.  Entangled partners seated side
   by side count as coordinated. *)
let check_seat_maps (s : Spec.serve) (t : Tally.t) o flights =
  let check = t.Tally.check in
  let geometry = { Flights.flights = Array.length flights; rows_per_flight = s.Spec.s_rows; dest = "LA" } in
  let adjacent = Flights.adjacent_pairs geometry in
  let entangled = ref [] in
  Hashtbl.iter
    (fun f rows ->
      let seats = List.sort_uniq Int.compare (List.map snd rows) in
      Check.expect check (List.length seats = List.length rows) (fun () ->
          Printf.sprintf "flight %d: a seat is booked twice" f);
      Array.iter
        (function
          | Seat_map _ -> ()
          | Book (u, sub) ->
            let seat = List.assoc_opt u.Travel.name rows in
            let committed = Hashtbl.mem o.committed u.Travel.name in
            Check.expect check (committed = (seat <> None)) (fun () ->
                Printf.sprintf "flight %d: %s %s" f u.Travel.name
                  (if committed then "committed but has no seat" else "has a seat it was refused"));
            if sub.Frame.partner <> None then begin
              entangled := u :: !entangled;
              match seat, List.assoc_opt u.Travel.partner rows with
              | Some a, Some b when List.mem (a, b) adjacent ->
                t.Tally.coordinated <- t.Tally.coordinated + 1
              | _ -> ()
            end)
        flights.(f))
    o.seat_maps;
  t.Tally.coordination_max <- t.Tally.coordination_max + Travel.max_coordination geometry !entangled

(* After the server is gone: replaying its log gives exactly the committed
   bookings, and every seat map the client was shown. *)
let check_recovered (t : Tally.t) o =
  let store = Store.open_ (Wal.file_backend wal_path) in
  let bookings = Check.bookings (Store.db store) in
  Check.final_bookings t.Tally.check (Store.db store) ~committed:o.committed;
  Store.close store;
  let seat_of = Hashtbl.create 4096 in
  List.iter (fun (u, f, s) -> Hashtbl.replace seat_of u (f, s)) bookings;
  Hashtbl.iter
    (fun f rows ->
      List.iter
        (fun (u, seat) ->
          Check.expect t.Tally.check
            (Hashtbl.find_opt seat_of u = Some (f, seat))
            (fun () -> Printf.sprintf "%s's seat changed after the seat map collapsed it" u))
        rows)
    o.seat_maps

let check_server (t : Tally.t) o (r : server_report) =
  let check = t.Tally.check and m = r.metrics in
  Check.expect check (r.failure = None) (fun () -> "the server failed");
  Check.expect check r.invariant (fun () -> "invariant broken at shutdown");
  Check.expect check (r.pending_at_stop = 0) (fun () -> "seat maps left transactions pending");
  Check.expect check
    (m.Metrics.committed + m.Metrics.rejected + m.Metrics.overloaded = m.Metrics.submitted
     && m.Metrics.committed = Hashtbl.length o.committed
     && m.Metrics.rejected = Hashtbl.length o.refused)
    (fun () ->
      Printf.sprintf "outcome counts disagree: engine %d/%d/%d of %d, client %d/%d"
        m.Metrics.committed m.Metrics.rejected m.Metrics.overloaded m.Metrics.submitted
        (Hashtbl.length o.committed) (Hashtbl.length o.refused));
  (* Seat maps that collapse pending bookings are durable writes too. *)
  Check.expect check
    (r.acked_durable >= m.Metrics.committed)
    (fun () -> Printf.sprintf "%d durable acks for %d commits" r.acked_durable m.Metrics.committed)

let engine_s (m : Metrics.t) = Metrics.time_submit m +. Metrics.time_read m +. Metrics.time_ground m

let add_layers (t : Tally.t) (r : server_report) ~phases_before ~parse_s ~parses ~replies ~phase_s =
  let m = r.metrics in
  Tally.add_phases t ~before:phases_before ~after:r.phases_at_stop;
  Tally.add t "core.engine_s" (engine_s m);
  Tally.add t "core.submit_s" (Metrics.time_submit m);
  Tally.add t "core.read_s" (Metrics.time_read m);
  Tally.add t "core.parse_s" parse_s;
  Tally.add_int t "core.parses" parses;
  Tally.add_int t "core.requests" (List.length replies);
  Tally.add_engine t m r.wal;
  Tally.add_int t "net.batches" r.batches;
  Tally.add_int t "net.acked" r.acked_durable;
  Tally.add t "net.phase_s" phase_s;
  (* Shown in the traced report, not gated: server-side arrival-to-ack
     times come from the server's bucketed histogram. *)
  let q p = 1e3 *. Obs.Histogram.quantile r.server_accept p in
  let client = Sample.create () and late = Sample.create () and blocked = Sample.create () in
  List.iter
    (fun (rep : reply) ->
      (match rep.req, rep.answer with
       | Book _, Some (Frame.Committed _) -> Sample.add client rep.latency_s
       | _ -> ());
      Sample.add late rep.late_s;
      Sample.add blocked rep.send_s)
    replies;
  let pct sample p = 1e3 *. Option.value ~default:Float.nan (Sample.percentile sample p) in
  Tally.add t "net.server_p50_ms" (q 0.5);
  Tally.add t "net.server_p99_ms" (q 0.99);
  Tally.add t "net.wire_p50_ms" (pct client 0.5 -. q 0.5);
  Tally.add t "net.generator_late_p99_ms" (pct late 0.99);
  Tally.add t "net.send_block_p99_ms" (pct blocked 0.99)

(* The closed phase's throughput, one reading per [rate_window] replies
   (or one for the whole phase, when it is shorter). *)
let rate_window = 1000

let add_rates (c : Tally.cycle) replies =
  let at = Array.of_list (List.map (fun r -> r.at) replies) in
  let window = min rate_window (Array.length at - 1) in
  let rec go i =
    if window > 0 && i + window < Array.length at then begin
      Sample.add c.Tally.rates (float_of_int window /. seconds_between at.(i) at.(i + window));
      go (i + window)
    end
  in
  go 0

let setup_reps = 5

(* Time a set-up: request stream, store, server, connection. *)
let setup (s : Spec.serve) (t : Tally.t) ~seed ~flights =
  let (requests, running, client), dt =
    Tally.timed (fun () ->
        let requests = generate s ~seed ~flights in
        let running = start s ~flights in
        (requests, running, connect running.address))
  in
  Sample.add t.Tally.setup dt;
  (requests, running, client)

(* A run is [cycles] cycles of an open phase and a closed phase over one
   server, so that a slow stretch of the host (or of its disk, which every
   group commit waits for) spoils at most some of them. *)
let cycles = 8

(* The open rate is about 30% of the closed-loop rate on the host it was
   calibrated on; a closed phase serves the flights that rate gets through
   in its share of the run. *)
let calibrated_share = 0.3

let measure (s : Spec.serve) (t : Tally.t) ~seed ~seconds ~traced =
  let per_flight = float_of_int ((2 * s.Spec.s_pairs) + 1) in
  let open_s = 0.5 *. seconds /. float_of_int cycles in
  let closed_flights =
    int_of_float
      (Float.ceil (0.25 *. seconds /. float_of_int cycles *. s.Spec.low_rps /. calibrated_share /. per_flight))
  in
  let flights =
    cycles * (int_of_float (Float.ceil (s.Spec.low_rps *. open_s /. per_flight)) + 1 + closed_flights)
  in
  for _ = 2 to setup_reps do
    let _, running, client = setup s t ~seed ~flights in
    Client.close client;
    ignore (running.stop ())
  done;
  let requests, running, client = setup s t ~seed ~flights in
  let phases_before = Tally.phases () in
  let o = { committed = Hashtbl.create 4096; refused = Hashtbl.create 1024; seat_maps = Hashtbl.create 1024 } in
  let rec run_cycles n ~first ~replies ~wall =
    if n = 0 then (first, replies, wall)
    else begin
      let cycle = Tally.new_cycle t in
      let opened, next, open_wall =
        drive client (Open s.Spec.low_rps) requests ~first ~upto:flights ~seconds:open_s
      in
      List.iter (record t o ~cycle:(Some cycle)) opened;
      let closed, next, closed_wall =
        drive client (Closed s.Spec.window) requests ~first:next ~upto:(next + closed_flights)
          ~seconds:Float.infinity
      in
      List.iter (record t o ~cycle:None) closed;
      add_rates cycle closed;
      run_cycles (n - 1) ~first:next ~replies:(opened @ closed @ replies) ~wall:(wall +. open_wall +. closed_wall)
    end
  in
  let used, replies, wall = run_cycles cycles ~first:0 ~replies:[] ~wall:0. in
  Client.close client;
  let report = running.stop () in
  check_server t o report;
  check_seat_maps s t o requests;
  check_recovered t o;
  Sys.remove wal_path;
  if traced then begin
    let texts =
      Array.sub requests 0 used |> Array.to_list |> List.concat_map Array.to_list
      |> List.filter_map (function Book (_, sub) -> Some sub | Seat_map _ -> None)
    in
    let (), parse_s =
      Tally.timed (fun () ->
          List.iter
            (fun sub ->
              let trigger =
                match sub.Frame.partner with
                | Some p -> Quantum.Rtxn.On_partner p
                | None -> Quantum.Rtxn.On_demand
              in
              ignore (Datalog_parser.parse_txn ~label:sub.Frame.label ~trigger sub.Frame.text))
            texts)
    in
    add_layers t report ~phases_before ~parse_s ~parses:(List.length texts) ~replies ~phase_s:wall
  end

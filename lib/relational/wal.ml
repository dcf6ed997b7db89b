(* Write-ahead log with batch atomicity — v2 format.

   Each record is one line:

     {seq} {crc32-hex} {s-expression payload}

   [seq] is a monotonically increasing record sequence number and the
   CRC-32 covers both the sequence field and the payload, so torn writes,
   bit flips and misordered segments are all detectable.  Legacy v1 lines
   (a bare s-expression, first character '(') are still accepted on
   replay — unchecked — so pre-v2 logs and hand-written test fixtures
   keep working.

   A batch is bracketed by [Begin n] and [Commit n]; replay applies only
   complete batches, so a crash in the middle of a batch loses the batch
   but never tears it.  DDL ([Create_table]) is recorded inline; a
   [Checkpoint] record carries a full database image, and taking a
   checkpoint compacts the log to that single record via an atomic
   rewrite-and-rename segment swap.

   Replay is lenient by default: the first corrupt, partial or
   out-of-sequence record truncates the log after the last complete
   batch, the damaged tail is physically removed (so later appends are
   not stranded behind it), and a structured {!recovery_report} says
   what was kept and why the rest was dropped.  [~strict:true] restores
   fail-stop behaviour for tests, raising {!Corrupt}. *)

type record =
  | Create_table of Schema.t
  | Begin of int
  | Op of Database.op
  | Commit of int
  | Checkpoint of Sexp.t (* serialized database image *)

exception Corrupt of { index : int; reason : string }

let corrupt index fmt =
  Format.kasprintf (fun reason -> raise (Corrupt { index; reason })) fmt

type backend = {
  append : string -> unit;
  iter_lines : (string -> unit) -> unit;
  read_all : unit -> string list;
  truncate : int -> unit; (* keep only the first n lines *)
  rewrite : string list -> unit; (* atomically replace the whole log *)
  flush : unit -> unit; (* push buffered appends to stable storage *)
  close : unit -> unit;
  reset : unit -> unit;
}

let mem_backend () =
  let lines = ref [] in
  (* newest first *)
  {
    append = (fun line -> lines := line :: !lines);
    iter_lines = (fun f -> List.iter f (List.rev !lines));
    read_all = (fun () -> List.rev !lines);
    truncate =
      (fun n -> lines := List.rev (List.filteri (fun i _ -> i < n) (List.rev !lines)));
    rewrite = (fun ls -> lines := List.rev ls);
    flush = (fun () -> ());
    close = (fun () -> ());
    reset = (fun () -> lines := []);
  }

(* One out-channel for the handle's lifetime (opened on first append,
   reopened after a segment swap) — the previous open/append/close per
   record cost a file open on every single log write. *)
let file_backend path =
  let oc = ref None in
  let get_oc () =
    match !oc with
    | Some c -> c
    | None ->
      let c = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      oc := Some c;
      c
  in
  let flush_buffers () =
    match !oc with
    | Some c -> flush c
    | None -> ()
  in
  let close_oc () =
    match !oc with
    | Some c ->
      close_out c;
      oc := None
    | None -> ()
  in
  let fsync_channel c =
    flush c;
    try Unix.fsync (Unix.descr_of_out_channel c) with Unix.Unix_error _ -> ()
  in
  let append line =
    let c = get_oc () in
    output_string c line;
    output_char c '\n'
  in
  let iter_lines f =
    flush_buffers ();
    if Sys.file_exists path then begin
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | line ->
              f line;
              go ()
            | exception End_of_file -> ()
          in
          go ())
    end
  in
  let read_all () =
    let acc = ref [] in
    iter_lines (fun l -> acc := l :: !acc);
    List.rev !acc
  in
  let write_tmp_and_swap emit =
    let tmp = path ^ ".tmp" in
    let c = open_out tmp in
    (try emit c
     with e ->
       close_out_noerr c;
       raise e);
    fsync_channel c;
    close_out c;
    close_oc ();
    Sys.rename tmp path
  in
  let rewrite ls =
    write_tmp_and_swap (fun c ->
        List.iter
          (fun l ->
            output_string c l;
            output_char c '\n')
          ls)
  in
  let truncate n =
    (* Streamed copy of the first n lines, then swap — O(1) memory even
       on a large log. *)
    flush_buffers ();
    write_tmp_and_swap (fun c ->
        let i = ref 0 in
        iter_lines (fun l ->
            if !i < n then begin
              output_string c l;
              output_char c '\n'
            end;
            incr i))
  in
  let flush_to_disk () =
    match !oc with
    | Some c -> fsync_channel c
    | None -> ()
  in
  let reset () =
    close_oc ();
    if Sys.file_exists path then Sys.remove path
  in
  {
    append;
    iter_lines;
    read_all;
    truncate;
    rewrite;
    flush = flush_to_disk;
    close = close_oc;
    reset;
  }

(* -- Record codec --------------------------------------------------------- *)

let record_to_sexp = function
  | Create_table schema -> Sexp.List [ Sexp.Atom "ddl"; Schema.to_sexp schema ]
  | Begin n -> Sexp.List [ Sexp.Atom "begin"; Sexp.Atom (string_of_int n) ]
  | Op op -> Sexp.List [ Sexp.Atom "op"; Database.op_to_sexp op ]
  | Commit n -> Sexp.List [ Sexp.Atom "commit"; Sexp.Atom (string_of_int n) ]
  | Checkpoint image -> Sexp.List [ Sexp.Atom "checkpoint"; image ]

let record_of_sexp_at ~index = function
  | Sexp.List [ Sexp.Atom "ddl"; schema ] -> Create_table (Schema.of_sexp schema)
  | Sexp.List [ Sexp.Atom "begin"; Sexp.Atom n ] -> Begin (int_of_string n)
  | Sexp.List [ Sexp.Atom "op"; op ] -> Op (Database.op_of_sexp op)
  | Sexp.List [ Sexp.Atom "commit"; Sexp.Atom n ] -> Commit (int_of_string n)
  | Sexp.List [ Sexp.Atom "checkpoint"; image ] -> Checkpoint image
  | s -> corrupt index "bad wal record: %s" (Sexp.to_string s)

let record_of_sexp s = record_of_sexp_at ~index:(-1) s

(* CRC-32 (IEEE 802.3 reflected polynomial), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let encode_line ~seq record =
  let payload = Sexp.to_string (record_to_sexp record) in
  let covered = string_of_int seq ^ " " ^ payload in
  Printf.sprintf "%d %08x %s" seq (crc32 covered) payload

(* Decode one line into (sequence number if v2, record).  Raises
   {!Corrupt} on any damage; the caller decides whether that is fatal. *)
let decode_line_seq ~index line =
  if String.length line = 0 then corrupt index "empty line"
  else if line.[0] = '(' then
    (* Legacy v1: bare s-expression, no checksum, no sequence number. *)
    match record_of_sexp_at ~index (Sexp.of_string line) with
    | record -> (None, record)
    | exception Sexp.Parse_error msg -> corrupt index "unreadable record: %s" msg
  else
    match String.index_opt line ' ' with
    | None -> corrupt index "partial record header"
    | Some i ->
      (match String.index_from_opt line (i + 1) ' ' with
       | None -> corrupt index "partial record header"
       | Some j ->
         let seq_str = String.sub line 0 i in
         let crc_str = String.sub line (i + 1) (j - i - 1) in
         let payload = String.sub line (j + 1) (String.length line - j - 1) in
         let seq =
           match int_of_string_opt seq_str with
           | Some s when s >= 0 -> s
           | Some _ | None -> corrupt index "bad sequence field %S" seq_str
         in
         let crc =
           match if crc_str = "" then None else int_of_string_opt ("0x" ^ crc_str) with
           | Some c -> c
           | None -> corrupt index "bad checksum field %S" crc_str
         in
         if crc32 (seq_str ^ " " ^ payload) <> crc then
           corrupt index "checksum mismatch (record torn or bit-flipped)";
         (match record_of_sexp_at ~index (Sexp.of_string payload) with
          | record -> (Some seq, record)
          | exception Sexp.Parse_error msg -> corrupt index "unreadable record: %s" msg))

let decode_line ~index line = snd (decode_line_seq ~index line)

(* -- Durability policy ----------------------------------------------------- *)

type sync_policy =
  | Never (* leave flushing to the OS *)
  | Every_batch (* flush + fsync at every batch boundary (default) *)
  | Every_n of int (* flush once at least n records have accumulated *)

(* Cheap write-side telemetry: how much the log has absorbed since this
   handle was created (replayed history is not counted). *)
type stats = {
  mutable records : int;
  mutable batches : int;
  mutable checkpoints : int;
  mutable bytes : int; (* serialized bytes appended, newlines included *)
  mutable syncs : int; (* explicit flushes issued by the sync policy *)
}

let fresh_stats () = { records = 0; batches = 0; checkpoints = 0; bytes = 0; syncs = 0 }

(* -- Recovery report ------------------------------------------------------- *)

type recovery_report = {
  total_records : int;
  records_kept : int;
  records_dropped : int;
  batches_applied : int;
  truncated_at : int option; (* record index where replay stopped *)
  truncation_reason : string option;
}

let report_to_string r =
  match r.truncation_reason with
  | None -> Printf.sprintf "clean: %d record(s), %d batch(es)" r.records_kept r.batches_applied
  | Some reason ->
    Printf.sprintf "truncated at record %d (%s): kept %d, dropped %d"
      (Option.value ~default:(-1) r.truncated_at)
      reason r.records_kept r.records_dropped

type t = {
  backend : backend;
  mutable sync : sync_policy;
  mutable next_batch : int;
  mutable next_seq : int;
  mutable unsynced : int; (* records appended since the last flush *)
  mutable last_recovery : recovery_report option;
  stats : stats;
}

let create ?(sync = Every_batch) backend =
  {
    backend;
    sync;
    next_batch = 0;
    next_seq = 0;
    unsynced = 0;
    last_recovery = None;
    stats = fresh_stats ();
  }

let stats t = t.stats
let last_recovery t = t.last_recovery
let set_sync t policy = t.sync <- policy

let force_sync t =
  if t.unsynced > 0 then begin
    t.backend.flush ();
    t.stats.syncs <- t.stats.syncs + 1;
    t.unsynced <- 0
  end

let sync = force_sync
let close t = t.backend.close ()

(* Flush decision at a batch (or standalone-record) boundary. *)
let sync_boundary t =
  match t.sync with
  | Never -> ()
  | Every_batch -> force_sync t
  | Every_n n -> if t.unsynced >= n then force_sync t

let append_record t record =
  let line = encode_line ~seq:t.next_seq record in
  t.next_seq <- t.next_seq + 1;
  t.stats.records <- t.stats.records + 1;
  t.stats.bytes <- t.stats.bytes + String.length line + 1;
  (match record with
   | Checkpoint _ -> t.stats.checkpoints <- t.stats.checkpoints + 1
   | Create_table _ | Begin _ | Op _ | Commit _ -> ());
  t.backend.append line;
  t.unsynced <- t.unsynced + 1

let log t record =
  append_record t record;
  sync_boundary t

let log_batch t ops =
  t.stats.batches <- t.stats.batches + 1;
  let id = t.next_batch in
  t.next_batch <- id + 1;
  Obs.Trace.span ~cat:"wal"
    ~args:(fun () -> [ ("batch", Obs.Trace.Int id); ("ops", Obs.Trace.Int (List.length ops)) ])
    "wal.append_batch"
    (fun () ->
      append_record t (Begin id);
      List.iter (fun op -> append_record t (Op op)) ops;
      append_record t (Commit id);
      sync_boundary t);
  id

(* Full decode of the log — materializes everything, test use only;
   replay streams. *)
let records t =
  List.mapi (fun index line -> decode_line ~index line) (t.backend.read_all ())

(* -- Database images for checkpoints ------------------------------------- *)

let database_to_sexp db =
  let table_sexp name =
    let table = Database.table db name in
    Sexp.List
      [ Schema.to_sexp (Table.schema table);
        Sexp.List (List.map Tuple.to_sexp (List.sort Tuple.compare (Table.to_list table)));
      ]
  in
  Sexp.List (List.map table_sexp (Database.table_names db))

let database_of_sexp sexp =
  let db = Database.create () in
  (match sexp with
   | Sexp.List tables ->
     List.iter
       (fun t ->
         match t with
         | Sexp.List [ schema; Sexp.List rows ] ->
           let table = Database.create_table db (Schema.of_sexp schema) in
           List.iter
             (fun row ->
               match Table.insert table (Tuple.of_sexp row) with
               | Table.Inserted -> ()
               | Table.Duplicate_key ->
                 raise (Sexp.Parse_error "duplicate row in checkpoint image"))
             rows
         | s -> raise (Sexp.Parse_error ("bad table image: " ^ Sexp.to_string s)))
       tables
   | Sexp.Atom _ -> raise (Sexp.Parse_error "bad database image"));
  db

(* Checkpoint = compaction: the whole log is atomically replaced by one
   checkpoint record, so it no longer grows without bound.  Sequence
   numbering restarts at 0 in the fresh segment. *)
let checkpoint t db =
  Obs.Trace.span ~cat:"wal" "wal.checkpoint" (fun () ->
      let line = encode_line ~seq:0 (Checkpoint (database_to_sexp db)) in
      t.backend.rewrite [ line ];
      t.next_seq <- 1;
      t.unsynced <- 0;
      t.stats.records <- t.stats.records + 1;
      t.stats.bytes <- t.stats.bytes + String.length line + 1;
      t.stats.checkpoints <- t.stats.checkpoints + 1;
      t.stats.syncs <- t.stats.syncs + 1)

(* -- Replay ---------------------------------------------------------------- *)

(* Stream the log into a fresh database.  Complete batches apply at their
   [Commit]; DDL and checkpoints apply immediately and, like commits, mark
   a stable point.  In lenient mode (default) the first corrupt, partial
   or out-of-sequence record — or any structural error such as an op
   outside a batch — truncates replay after the last stable point and the
   damaged tail is removed from the backend.  In strict mode the same
   conditions raise {!Corrupt}.  An incomplete trailing batch (a clean
   crash mid-batch) is dropped in both modes and reported. *)
let replay_report ?(strict = false) t =
  let total = ref 0 in
  Obs.Trace.span ~cat:"wal"
    ~args:(fun () -> [ ("records", Obs.Trace.Int !total) ])
    "wal.replay"
  @@ fun () ->
  let db = ref (Database.create ()) in
  let pending = ref None in
  (* Every segment starts at seq 0 (a fresh log and a checkpoint's
     rewritten segment alike, and the first v2 line after a legacy v1
     prefix), so a lost head record is damage like any other gap. *)
  let expected_seq = ref (Some 0) in
  let seq_hwm = ref None in (* highest v2 seq among processed records *)
  let kept = ref 0 in (* records up to the last stable point *)
  let kept_seq = ref None in (* seq high-water mark at the last stable point *)
  let batches = ref 0 in
  let max_batch = ref (-1) in
  let trunc = ref None in
  let truncate_at index reason =
    if strict then raise (Corrupt { index; reason }) else trunc := Some (index, reason)
  in
  let stable index =
    kept := index + 1;
    kept_seq := !seq_hwm
  in
  let apply index record =
    match record with
    | Create_table schema ->
      (match Database.create_table !db schema with
       | _ -> stable index
       | exception Schema.Invalid msg ->
         truncate_at index (Printf.sprintf "ddl replay failed: %s" msg))
    | Checkpoint image ->
      (match database_of_sexp image with
       | db' ->
         db := db';
         pending := None;
         stable index
       | exception Sexp.Parse_error msg ->
         truncate_at index (Printf.sprintf "bad checkpoint image: %s" msg))
    | Begin n ->
      (match !pending with
       | None -> pending := Some (n, [])
       | Some (m, _) ->
         truncate_at index (Printf.sprintf "begin %d inside open batch %d" n m))
    | Op op ->
      (match !pending with
       | Some (n, ops) -> pending := Some (n, op :: ops)
       | None -> truncate_at index "op outside batch")
    | Commit n ->
      (match !pending with
       | Some (m, ops) when m = n ->
         (match Database.apply_ops !db (List.rev ops) with
          | Ok () ->
            pending := None;
            incr batches;
            max_batch := max !max_batch n;
            stable index
          | Error err ->
            truncate_at index
              (Printf.sprintf "batch %d not applicable: %s" n
                 (Database.op_error_to_string err)))
       | Some (m, _) ->
         truncate_at index (Printf.sprintf "mismatched commit: begin %d, commit %d" m n)
       | None -> truncate_at index (Printf.sprintf "commit %d outside batch" n))
  in
  t.backend.iter_lines (fun line ->
      let index = !total in
      incr total;
      if !trunc = None then
        match decode_line_seq ~index line with
        | exception Corrupt { reason; _ } -> truncate_at index reason
        | seq_opt, record ->
          let seq_ok =
            match seq_opt with
            | None -> true (* legacy v1 line: no sequencing *)
            | Some s ->
              (match !expected_seq with
               | Some e when s <> e ->
                 truncate_at index
                   (Printf.sprintf "out-of-sequence record: expected %d, found %d" e s);
                 false
               | _ ->
                 expected_seq := Some (s + 1);
                 seq_hwm := Some s;
                 true)
          in
          if seq_ok then apply index record);
  (* A clean crash mid-batch: Begin (and maybe ops) without a Commit. *)
  (match (!pending, !trunc) with
   | Some (n, _), None ->
     trunc := Some (!kept, Printf.sprintf "incomplete trailing batch %d" n)
   | _ -> ());
  let dropped = !total - !kept in
  let report =
    {
      total_records = !total;
      records_kept = !kept;
      records_dropped = dropped;
      batches_applied = !batches;
      truncated_at = (match !trunc with Some (i, _) -> Some i | None -> None);
      truncation_reason = (match !trunc with Some (_, r) -> Some r | None -> None);
    }
  in
  (* Repair: physically drop the damaged/incomplete tail so future
     appends are not stranded behind it on the next replay. *)
  if dropped > 0 then t.backend.truncate !kept;
  t.next_batch <- !max_batch + 1;
  t.next_seq <- (match !kept_seq with Some s -> s + 1 | None -> 0);
  t.last_recovery <- Some report;
  (!db, report)

let replay ?strict t = fst (replay_report ?strict t)

(* Tests for the SQL-like surface syntax (Figure 1). *)

module Qdb = Quantum.Qdb
module Rtxn = Quantum.Rtxn
module Sql = Quantum.Sql_parser
module Datalog = Quantum.Datalog_parser
module Flights = Workload.Flights
open Logic

let schema_of db rel =
  Option.map Relational.Table.schema (Relational.Database.find_table db rel)

let fresh () =
  let store =
    Flights.fresh_store { Flights.flights = 2; rows_per_flight = 2; dest = "LA" }
  in
  let qdb = Qdb.create store in
  (store, qdb, schema_of (Qdb.db qdb))

(* Figure 1's transaction, adapted to our travel schema.  The paper's SQL
   treats "OPTIONAL Available A2" as a mere seat-number domain; its
   Datalog form uses only Bookings(G, f, s2) ∧ Adjacent(s1, s2), which is
   what we express here with an OPTIONAL Bookings item. *)
let figure1_text =
  {|SELECT 'Mickey', A1.fno AS @f, A1.seat AS @s
    FROM Flights F, Available A1, OPTIONAL Bookings B2, OPTIONAL Adjacent J
    WHERE F.dest = 'LA'
      AND A1.fno = F.fno
      AND B2.user = 'Goofy' AND B2.fno = A1.fno
      AND J.s1 = A1.seat AND J.s2 = B2.seat
    CHOOSE 1
    FOLLOWED BY (
      DELETE (@f, @s) FROM Available;
      INSERT ('Mickey', @f, @s) INTO Bookings; )|}

let test_figure1_structure () =
  let _, _, schema_of = fresh () in
  let txn = Sql.parse_txn ~label:"Mickey" ~schema_of figure1_text in
  (* Hard: Flights, Available (A1).  Optional: Bookings (B2), Adjacent. *)
  Alcotest.(check int) "hard atoms" 2 (List.length txn.Rtxn.hard);
  Alcotest.(check int) "optional atoms" 2 (List.length txn.Rtxn.optional);
  Alcotest.(check int) "hard constraints" 2 (List.length txn.Rtxn.constraints);
  Alcotest.(check int) "optional constraints" 4 (List.length txn.Rtxn.optional_constraints);
  Alcotest.(check int) "updates" 2 (List.length txn.Rtxn.updates);
  (* The insert uses the @-bound variables of A1. *)
  (match Rtxn.inserts txn with
   | [ ins ] ->
     Alcotest.(check string) "insert relation" "Bookings" ins.Atom.rel;
     Alcotest.(check bool) "constant user" true (Term.equal ins.Atom.args.(0) (Term.str "Mickey"))
   | _ -> Alcotest.fail "one insert expected")

let test_figure1_executes () =
  let store, qdb, schema_of = fresh () in
  (* Goofy books flight 0 seat 1 classically. *)
  assert (Workload.Travel.book store { Workload.Travel.name = "Goofy"; partner = ""; flight = 0 } 1);
  let txn = Sql.parse_txn ~label:"Mickey" ~schema_of figure1_text in
  (match Qdb.submit qdb txn with
   | Qdb.Committed id -> ignore (Qdb.ground qdb id)
   | Qdb.Rejected reason | Qdb.Overloaded reason -> Alcotest.failf "rejected: %s" reason);
  match Flights.booking_of (Qdb.db qdb) "Mickey" with
  | Some (f, s) ->
    Alcotest.(check int) "same flight as Goofy" 0 f;
    Alcotest.(check bool) "adjacent to Goofy" true (Flights.seats_adjacent (Qdb.db qdb) s 1)
  | None -> Alcotest.fail "Mickey should be booked"

let test_in_membership () =
  let _, _, schema_of = fresh () in
  (* Figure 1's (…) IN Rel idiom as a hard membership atom. *)
  let txn =
    Sql.parse_txn ~schema_of
      {|SELECT A.seat AS @s FROM Available A
        WHERE (A.fno, A.seat) IN Available AND A.fno = 0
        CHOOSE 1 FOLLOWED BY ( DELETE (0, @s) FROM Available; )|}
  in
  Alcotest.(check int) "membership adds an atom" 2 (List.length txn.Rtxn.hard)

let test_unqualified_columns () =
  let _, _, schema_of = fresh () in
  (* 'dest' appears only in Flights: unqualified reference resolves. *)
  let txn =
    Sql.parse_txn ~schema_of
      {|SELECT F.fno FROM Flights F WHERE dest = 'LA' CHOOSE 1 FOLLOWED BY ( )|}
  in
  Alcotest.(check int) "one atom" 1 (List.length txn.Rtxn.hard);
  (* 'fno' is ambiguous across Flights and Available. *)
  Alcotest.(check bool) "ambiguous column" true
    (match
       Sql.parse_txn ~schema_of
         {|SELECT 1 FROM Flights F, Available A WHERE fno = 1 CHOOSE 1 FOLLOWED BY ( )|}
     with
     | exception Sql.Syntax_error _ -> true
     | _ -> false)

let test_errors () =
  let _, _, schema_of = fresh () in
  let fails input =
    match Sql.parse_txn ~schema_of input with
    | exception Sql.Syntax_error _ -> true
    | exception Rtxn.Ill_formed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown relation" true
    (fails {|SELECT 1 FROM Nope N CHOOSE 1 FOLLOWED BY ( )|});
  Alcotest.(check bool) "unknown column" true
    (fails {|SELECT F.wings FROM Flights F CHOOSE 1 FOLLOWED BY ( )|});
  Alcotest.(check bool) "missing CHOOSE" true
    (fails {|SELECT 1 FROM Flights F FOLLOWED BY ( )|});
  Alcotest.(check bool) "@ before AS" true
    (fails {|SELECT @x FROM Flights F CHOOSE 1 FOLLOWED BY ( )|});
  Alcotest.(check bool) "duplicate alias" true
    (fails {|SELECT 1 FROM Flights F, Available F CHOOSE 1 FOLLOWED BY ( )|});
  (* FOLLOWED BY using a variable bound only by an OPTIONAL item. *)
  Alcotest.(check bool) "optional var in update" true
    (fails
       {|SELECT A2.seat AS @s FROM Available A1, OPTIONAL Available A2
         CHOOSE 1 FOLLOWED BY ( DELETE (A2.fno, @s) FROM Available; )|})

let test_case_insensitive_keywords () =
  let _, _, schema_of = fresh () in
  let txn =
    Sql.parse_txn ~schema_of
      {|select A.fno as @f, A.seat as @s from Available A where A.fno = 1
        choose 1 followed by ( delete (@f, @s) from Available; )|}
  in
  Alcotest.(check int) "one delete" 1 (List.length (Rtxn.deletes txn))

(* Input boundary: whatever the bytes, each parser returns or raises
   only its own [Syntax_error] or [Rtxn.Ill_formed].  Inputs are arbitrary
   strings and the Figure 1 texts of both surfaces under up to four
   byte-level mutations (delete, insert, truncate, bit flip). *)
let prop_parsers_total =
  let open QCheck.Gen in
  let mutation s =
    let n = String.length s in
    if n = 0 then map (String.make 1) char
    else
      int_bound (n - 1) >>= fun i ->
      oneof
        [ return (String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1));
          map (fun c -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)) char;
          return (String.sub s 0 i);
          map
            (fun bit ->
              String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c) s)
            (int_bound 7);
        ]
  in
  let rec mutations k s = if k = 0 then return s else mutation s >>= mutations (k - 1) in
  let seeds = [ figure1_text; Test_parser.figure1_text; Test_parser.figure1_query ] in
  let input =
    frequency
      [ (1, string_size ~gen:char (0 -- 80));
        (3, oneofl seeds >>= fun s -> int_range 1 4 >>= fun k -> mutations k s);
      ]
  in
  let _, _, schema_of = fresh () in
  QCheck.Test.make ~name:"parsers are total on mutated input" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") input)
    (fun s ->
      (match Sql.parse_txn ~schema_of s with
       | _ -> ()
       | exception (Sql.Syntax_error _ | Rtxn.Ill_formed _) -> ());
      (match Datalog.parse_txn s with
       | _ -> ()
       | exception (Datalog.Syntax_error _ | Rtxn.Ill_formed _) -> ());
      (match Datalog.parse_query s with
       | _ -> ()
       | exception (Datalog.Syntax_error _ | Rtxn.Ill_formed _) -> ());
      true)

let suite =
  [ Alcotest.test_case "Figure 1 structure" `Quick test_figure1_structure;
    Alcotest.test_case "Figure 1 executes" `Quick test_figure1_executes;
    Alcotest.test_case "IN membership" `Quick test_in_membership;
    Alcotest.test_case "unqualified columns" `Quick test_unqualified_columns;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "case-insensitive keywords" `Quick test_case_insensitive_keywords;
    QCheck_alcotest.to_alcotest prop_parsers_total;
  ]

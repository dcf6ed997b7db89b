(* Tests for the Datalog-like parser. *)

module P = Quantum.Datalog_parser
module Rtxn = Quantum.Rtxn
open Logic

(* The paper's running example in the intermediate representation. *)
let figure1_text =
  "-Available(f1, s1), +Bookings(Mickey, f1, s1) :-1 Available(f1, s1), \
   ?Bookings(Goofy, f1, s2), ?Adjacent(s1, s2)"

let figure1_query = "(f, s) :- Bookings(Mickey, f, s), f <> 2"

let test_figure1 () =
  let txn = P.parse_txn ~label:"mickey" figure1_text in
  Alcotest.(check int) "one hard atom" 1 (List.length txn.Rtxn.hard);
  Alcotest.(check int) "two optional atoms" 2 (List.length txn.Rtxn.optional);
  Alcotest.(check int) "two updates" 2 (List.length txn.Rtxn.updates);
  (* Capitalised bare identifiers are string constants. *)
  (match Rtxn.inserts txn with
   | [ ins ] ->
     Alcotest.(check bool) "Mickey constant" true
       (Term.equal ins.Atom.args.(0) (Term.str "Mickey"))
   | _ -> Alcotest.fail "one insert expected");
  (* Shared variable names refer to the same variable. *)
  let hard = List.hd txn.Rtxn.hard in
  (match Rtxn.deletes txn with
   | [ del ] ->
     Alcotest.(check bool) "f1 shared" true (Term.equal hard.Atom.args.(0) del.Atom.args.(0))
   | _ -> Alcotest.fail "one delete expected")

let test_constraints () =
  let txn =
    P.parse_txn
      "-A(f, s) :-1 A(f, s), f = 3, s <> 7, ?{ s = 1 }"
  in
  Alcotest.(check int) "two hard constraints" 2 (List.length txn.Rtxn.constraints);
  Alcotest.(check int) "one optional constraint" 1 (List.length txn.Rtxn.optional_constraints)

let test_comparisons () =
  let txn = P.parse_txn ":-1 A(x, y), x < 3, y <= 4, x > 0, y >= 1" in
  Alcotest.(check int) "four comparisons" 4 (List.length txn.Rtxn.constraints);
  (* x > 0 normalizes to 0 < x, y >= 1 to 1 <= y. *)
  let has f = List.exists (fun g -> g = f) txn.Rtxn.constraints in
  let x, y =
    match (List.hd txn.Rtxn.hard).Logic.Atom.args with
    | [| x; y |] -> (x, y)
    | _ -> Alcotest.fail "arity"
  in
  Alcotest.(check bool) "x<3" true (has (Logic.Formula.Lt (x, Term.int 3)));
  Alcotest.(check bool) "y<=4" true (has (Logic.Formula.Le (y, Term.int 4)));
  Alcotest.(check bool) "0<x" true (has (Logic.Formula.Lt (Term.int 0, x)));
  Alcotest.(check bool) "1<=y" true (has (Logic.Formula.Le (Term.int 1, y)))

let test_literals () =
  let txn = P.parse_txn {|:-1 R(-5, "hello world", true, false, x)|} in
  let atom = List.hd txn.Rtxn.hard in
  Alcotest.(check bool) "negative int" true (Term.equal atom.Atom.args.(0) (Term.int (-5)));
  Alcotest.(check bool) "string" true (Term.equal atom.Atom.args.(1) (Term.str "hello world"));
  Alcotest.(check bool) "true" true (Term.equal atom.Atom.args.(2) (Term.bool true));
  Alcotest.(check bool) "false" true (Term.equal atom.Atom.args.(3) (Term.bool false));
  Alcotest.(check bool) "variable" true (Term.is_var atom.Atom.args.(4))

let test_pure_choose () =
  let txn = P.parse_txn ":-1 A(x, y)." in
  Alcotest.(check int) "no updates" 0 (List.length txn.Rtxn.updates);
  Alcotest.(check int) "one atom" 1 (List.length txn.Rtxn.hard)

let test_comments_and_dot () =
  let txn = P.parse_txn "% booking\n-A(f, s) :-1 A(f, s). % done" in
  Alcotest.(check int) "parsed through comments" 1 (List.length txn.Rtxn.hard)

let test_query () =
  let q = P.parse_query figure1_query in
  Alcotest.(check int) "head arity" 2 (List.length q.Solver.Query.head);
  Alcotest.(check int) "one atom" 1 (List.length q.Solver.Query.body);
  Alcotest.(check int) "one constraint" 1 (List.length q.Solver.Query.constraints)

let test_errors () =
  let fails input =
    match P.parse_txn input with
    | exception P.Syntax_error _ -> true
    | exception Rtxn.Ill_formed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing turnstile" true (fails "-A(f, s) A(f, s)");
  Alcotest.(check bool) "unbalanced parens" true (fails "-A(f, s :-1 A(f, s)");
  Alcotest.(check bool) "trailing garbage" true (fails ":-1 A(x, y) extra(z)..");
  Alcotest.(check bool) "unterminated string" true (fails {|:-1 A("abc|});
  Alcotest.(check bool) "range violation" true (fails "+B(x) :-1 A(y)");
  (match P.parse_query "(x) :- ?A(x)" with
   | exception P.Syntax_error _ -> ()
   | _ -> Alcotest.fail "optional in query must fail")

let test_roundtrip_through_engine () =
  (* A parsed transaction must execute end to end. *)
  let store =
    Workload.Flights.fresh_store { Workload.Flights.flights = 1; rows_per_flight = 1; dest = "LA" }
  in
  let qdb = Quantum.Qdb.create store in
  let txn =
    P.parse_txn ~label:"mickey"
      {|-Available(f, s), +Bookings("mickey", f, s) :-1 Available(f, s), f = 0|}
  in
  (match Quantum.Qdb.submit qdb txn with
   | Quantum.Qdb.Committed _ -> ()
   | Quantum.Qdb.Rejected r | Quantum.Qdb.Overloaded r -> Alcotest.failf "rejected: %s" r);
  ignore (Quantum.Qdb.ground_all qdb);
  Alcotest.(check bool) "booked" true
    (Workload.Flights.booking_of (Quantum.Qdb.db qdb) "mickey" <> None)

let suite =
  [ Alcotest.test_case "Figure 1 transaction" `Quick test_figure1;
    Alcotest.test_case "constraints" `Quick test_constraints;
    Alcotest.test_case "comparison operators" `Quick test_comparisons;
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "pure choose" `Quick test_pure_choose;
    Alcotest.test_case "comments and dot" `Quick test_comments_and_dot;
    Alcotest.test_case "query" `Quick test_query;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "parse and execute" `Quick test_roundtrip_through_engine;
  ]

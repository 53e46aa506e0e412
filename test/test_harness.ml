(* Tests of the experiment harness: every table builder must produce the
   right shape (row/column counts, parseable cells) and the headline
   invariants of the reproduction must hold (GCC < Cash < BCC, trends). *)

let pct_cell cell =
  (* "12.3%" -> 12.3 *)
  match float_of_string_opt (String.sub cell 0 (String.length cell - 1)) with
  | Some v -> v
  | None -> Alcotest.failf "not a percentage cell: %S" cell

let test_report_formatting () =
  let t =
    Harness.Report.make ~title:"t" ~headers:[ "a"; "b" ]
      ~rows:[ [ "xx"; "y" ]; [ "1"; "22222" ] ]
      ~notes:[ "n" ] ()
  in
  let s = Fmt.str "%a" Harness.Report.pp t in
  Alcotest.(check bool) "title present" true (String.length s > 10);
  Alcotest.(check bool) "separator present" true (String.contains s '-');
  Alcotest.(check bool) "note present" true (String.contains s 'n')

let test_runner_detects_disagreement () =
  (* a program whose behaviour is an overflow must raise, not mislead *)
  match
    Harness.Runner.compare_backends
      "int a[2]; int main() { int i; for (i=0;i<4;i++) a[i]=i; return 0; }"
  with
  | exception Harness.Runner.Disagreement _ -> ()
  | _ -> Alcotest.fail "expected Disagreement"

let test_line_count () =
  Alcotest.(check int) "counts non-blank lines" 2
    (Harness.Runner.line_count "a\n\n  \nb\n")

let check_table ~rows ~cols (t : Harness.Report.t) =
  Alcotest.(check int) "row count" rows (List.length t.Harness.Report.rows);
  List.iter
    (fun r -> Alcotest.(check int) "column count" cols (List.length r))
    t.Harness.Report.rows

let test_table1_shape () =
  let t = Harness.Table1.run () in
  check_table ~rows:6 ~cols:7 t;
  (* headline invariant: Cash overhead < BCC overhead on every kernel *)
  List.iter
    (fun row ->
      match row with
      | [ _; hwsw; _; cash; bcc; _; _ ] ->
        Alcotest.(check bool) "cash < bcc" true (pct_cell cash < pct_cell bcc);
        Alcotest.(check bool) "cash below 10%" true (pct_cell cash < 10.0);
        (* Table 1 runs with 4 registers: no software checks anywhere *)
        Alcotest.(check bool) "all hw" true
          (String.length hwsw > 2
           && String.sub hwsw (String.length hwsw - 2) 2 = "/0")
      | _ -> Alcotest.fail "bad row shape")
    t.Harness.Report.rows

let test_table3_trend () =
  let t = Harness.Table3.run () in
  check_table ~rows:3 ~cols:5 t;
  (* the paper's claim: relative overhead decreases as input grows *)
  List.iter
    (fun row ->
      match row with
      | [ _; s16; _; _; s128 ] ->
        Alcotest.(check bool) "shrinks with size" true
          (pct_cell s128 < pct_cell s16)
      | _ -> Alcotest.fail "bad row shape")
    t.Harness.Report.rows

let test_table8_shape () =
  let t = Harness.Table8.run ~requests:5 () in
  check_table ~rows:6 ~cols:5 t;
  List.iter
    (fun row ->
      match row with
      | [ _; lat; thr; _; _ ] ->
        (* latency and throughput penalties track each other (§4.4) *)
        Alcotest.(check bool) "within 3x of each other" true
          (let l = pct_cell lat and t = pct_cell thr in
           l >= 0.0 && t >= 0.0 && l < 25.0
           && Float.abs (l -. t) < 3.0 +. (0.5 *. l))
      | _ -> Alcotest.fail "bad row shape")
    t.Harness.Report.rows

(* The warm-started snapshot split must reproduce the serial Table 8
   byte for byte, at several job counts — the whole point of the split
   is that nobody can tell from the table that the requests were
   warm-started from a checkpoint instead of run back-to-back. The
   split runs through [Suite.run_all], the path bench takes. *)
let test_table8_split_equals_serial () =
  let render t = Format.asprintf "%a" Harness.Report.pp t in
  let serial = render (Harness.Table8.run ~requests:4 ()) in
  let table8 =
    List.filter
      (fun (e : Harness.Suite.experiment) -> e.name = "table8")
      (Harness.Suite.all ~table8_requests:4 ())
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "split -j%d" jobs)
        [ serial ]
        (List.map render (Harness.Suite.run_all ~jobs table8)))
    [ 1; 2; 4 ]

let test_figure2_expectations_met () =
  let t = Harness.Figure2.run () in
  List.iter
    (fun row ->
      match row with
      | [ probe; _; result; expected ] ->
        Alcotest.(check string) probe expected result
      | _ -> Alcotest.fail "bad row shape")
    t.Harness.Report.rows

let test_microcosts_anchors () =
  let t = Harness.Microcosts.run () in
  let find name =
    match
      List.find_opt (fun r -> List.hd r = name) t.Harness.Report.rows
    with
    | Some (_ :: v :: _) -> v
    | _ -> Alcotest.failf "missing row %s" name
  in
  (* the two kernel-path costs are exact by construction *)
  Alcotest.(check string) "gate" "253" (find "cash_modify_ldt (cycles)");
  Alcotest.(check string) "int80" "781" (find "modify_ldt (cycles)");
  Alcotest.(check string) "per use" "4" (find "per-array-use overhead (cycles)");
  (* the assembled paths land within a few percent of the paper *)
  let close_to name paper =
    let v = int_of_string (find name) in
    Alcotest.(check bool)
      (Printf.sprintf "%s ~ %d (got %d)" name paper v)
      true
      (abs (v - paper) * 100 < paper * 10)
  in
  close_to "per-program overhead (cycles)" 543;
  close_to "per-array overhead (cycles)" 263

let test_ablation_monotone () =
  let t = Harness.Ablation.run () in
  check_table ~rows:6 ~cols:7 t;
  List.iter
    (fun row ->
      match row with
      | [ _; r2; _; _; _; r4; _ ] ->
        (* more registers never hurt *)
        Alcotest.(check bool) "4 regs <= 2 regs + eps" true
          (pct_cell r4 <= pct_cell r2 +. 1.0)
      | _ -> Alcotest.fail "bad row shape")
    t.Harness.Report.rows

(* The quick five-scheme matrix at one job: its rendered table and
   per-scheme totals are pinned by digest (see golden.ml). *)
let test_matrix_golden () =
  let report, totals = Harness.Matrix.run ~quick:true ~jobs:1 () in
  Golden.check "matrix"
    [
      ("report", Format.asprintf "%a" Harness.Report.pp report);
      ( "totals",
        String.concat "\n"
          (List.map
             (fun (t : Harness.Matrix.totals) ->
               Printf.sprintf "%s %d %h" t.Harness.Matrix.t_scheme
                 t.Harness.Matrix.t_cycles t.Harness.Matrix.t_overhead_pct)
             totals) );
    ]

(* The software-check dynamics table, which bench prints after the
   Suite reports as [ablation-dynamics]: pinned in a section of its own,
   since it is no [Suite] entry. *)
let test_dynamics_golden () =
  Golden.check "dynamics"
    [
      ( "ablation-dynamics",
        Format.asprintf "%a" Harness.Report.pp
          (Harness.Ablation.sw_check_dynamics ()) );
    ]

let suite =
  [
    Alcotest.test_case "report formatting" `Quick test_report_formatting;
    Alcotest.test_case "runner disagreement" `Quick test_runner_detects_disagreement;
    Alcotest.test_case "line count" `Quick test_line_count;
    Alcotest.test_case "table1 shape+invariants" `Slow test_table1_shape;
    Alcotest.test_case "table3 trend" `Slow test_table3_trend;
    Alcotest.test_case "table8 shape" `Slow test_table8_shape;
    Alcotest.test_case "table8 split = serial" `Slow
      test_table8_split_equals_serial;
    Alcotest.test_case "figure2 expectations" `Slow test_figure2_expectations_met;
    Alcotest.test_case "microcost anchors" `Slow test_microcosts_anchors;
    Alcotest.test_case "ablation monotone" `Slow test_ablation_monotone;
    Alcotest.test_case "quick matrix golden digests" `Slow test_matrix_golden;
    Alcotest.test_case "dynamics golden digest" `Slow test_dynamics_golden;
  ]

(* Property-based differential testing of the three compilers — the
   tier-1 face of the fuzzing subsystem in lib/fuzz (the standalone
   `cashfuzz` binary runs the same fleet at 10^5-program scale).

   A seeded generator ([Fuzz.Gen]) produces random mini-C programs —
   global arrays, (nested) loops, helper-function calls over array
   pointers, aliased pointer walks, offset reads, data-dependent
   stores — in bounds *by construction*, then optionally injects one
   out-of-bounds access (small enough that the unchecked baseline stays
   on mapped pages and corrupts silently instead of crashing).

   Properties, over a fixed-seed fleet of 210 programs ([Fuzz.Check]):

   - in bounds: gcc, bcc, and cash all Finish with identical output —
     neither checker may change observable semantics of a correct
     program, and the checked compilers must agree with the baseline;
   - out of bounds, loop shape: bcc and cash BOTH report a bound
     violation (the software checker and the segmentation hardware flag
     the same bug), while gcc never does — it either finishes silently
     corrupted or crashes on an unrelated fault, which is exactly the
     failure mode the paper's mechanism exists to close;
   - out of bounds, straight-line shape: bcc reports a bound violation;
     cash runs straight through it. That is §3.8's policy — the Cash
     compiler checks references inside loops only — and the fleet pins
     it HONESTLY as a known miss rather than a divergence (a cash that
     started catching these would fail the pin and force the policy
     model to be updated).

   Both properties run under the superblock engine for every seed, with
   the reference oracle joining on every 7th seed
   ([Fuzz.Check.all_engines]); on those seeds outputs must also agree
   across the two engines.

   Every case is deterministic (own PRNG state per seed), so a failure
   message naming the seed reproduces the program exactly. On top of
   that, a failing seed is greedily shrunk to a minimal reproducer
   ([Fuzz.Shrink]) and BOTH programs are dumped with machine snapshots
   and replay command lines — seed_N.{c,snap,txt} and
   seed_N.min.{c,snap,txt} — under $CASH_DIFF_DUMP (default
   "diff-failures", created recursively), so the terminal state can be
   re-examined offline with `cashc --replay`. CASH_DIFF_FORCE_FAIL=<n>
   forces that in-bounds seed to fail, which is how CI exercises the
   dump-shrink-replay path on demand. *)

let in_bounds_cases = 140
let oob_cases = 70

let dump_dir () =
  match Sys.getenv_opt "CASH_DIFF_DUMP" with
  | Some d when d <> "" -> d
  | _ -> "diff-failures"

let force_fail () =
  match Sys.getenv_opt "CASH_DIFF_FORCE_FAIL" with
  | Some s -> int_of_string_opt s
  | None -> None

(* The fleet fans out across domains exactly as before (CASH_JOBS or
   the recommended count, via lib/parallel inside Fuzz.Fleet); failure
   reports come back in seed order, so a red run names the same seed a
   serial run would. *)
let run_fleet ~first_seed ~count ~oob_every =
  let stats =
    Fuzz.Fleet.run
      {
        Fuzz.Fleet.count;
        first_seed;
        oob_every;
        engines = Fuzz.Fleet.All;
        jobs = None;
        dump_dir = Some (dump_dir ());
        force_fail = force_fail ();
        shrink = true;
        plugins = false;
      }
  in
  match stats.Fuzz.Fleet.failures with
  | [] -> ()
  | (r : Fuzz.Fleet.failure_report) :: rest ->
    Alcotest.failf "%s%s%s" r.r_message
      (match r.r_artifacts with
       | [] -> ""
       | ps -> "\nartifacts: " ^ String.concat ", " ps)
      (if rest = [] then ""
       else Printf.sprintf "\n(+%d more failing seeds)" (List.length rest))

let test_in_bounds () =
  run_fleet ~first_seed:0 ~count:in_bounds_cases ~oob_every:0

let test_out_of_bounds () =
  run_fleet ~first_seed:1000 ~count:oob_cases ~oob_every:1

(* The generator itself must be deterministic, or a reported seed would
   not reproduce the failing program. *)
let test_generator_deterministic () =
  for seed = 0 to 9 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~oob:true))
      (Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~oob:true))
  done

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "in-bounds agreement (%d programs)" in_bounds_cases)
      `Slow test_in_bounds;
    Alcotest.test_case
      (Printf.sprintf "overrun detection (%d programs)" oob_cases)
      `Slow test_out_of_bounds;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
  ]

(* Host-speed correction. The benchmark shares its host, whose speed
   drifts: the same code runs up to 1.7 times slower for seconds or
   minutes at a time, and process CPU time slows with it, so neither wall
   nor CPU time alone repeats between runs. A fixed calibration kernel,
   which uses none of the libraries under test, runs a short burst right
   before and right after each timed piece of work. The work's time is
   scaled by [reference_s] over the mean of the two bursts: a time is
   reported as it would read on a host where one burst takes
   [reference_s]. A change to the program cannot move the kernel, so it
   cannot move the scale.

   The kernel has two halves, each tracking one kind of slowdown the
   simulator suffers. The first mimics its inner loop: an indirect call
   per step and a dependent load and store into a 4 MiB table, kept
   outside the OCaml heap so the heap peak does not see it. The second
   allocates short-lived pairs, as compiling and building machines do; it
   promotes almost nothing, so the program's major heap barely touches
   it. On the 2-core test VM, over 20-second windows, the median ratio
   of a Table 1 run to a burst spread 3% where the raw Table 1 time
   spread 13%, and a 50-program fuzz fleet 8% against 20%. *)

let words = 1 lsl 19
let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words
let () = Bigarray.Array1.fill table 0

let steps : (int -> int) array =
  [| (fun x -> x + 7); (fun x -> x lxor (x lsr 3)); (fun x -> (x * 5) + 1);
     (fun x -> (x lsl 1) lor 1); (fun x -> x - 3); (fun x -> x land 0xffffff) |]

let table_walk () =
  let x = ref 1 in
  for i = 1 to 8_000_000 do
    x := steps.(i mod 6) !x;
    let a = (!x * 2654435761) land (words - 1) in
    let v = Bigarray.Array1.unsafe_get table a in
    Bigarray.Array1.unsafe_set table ((a + 8) land (words - 1)) (v + i)
  done;
  !x

let allocate () =
  let acc = ref [] in
  for i = 1 to 10_000_000 do
    acc := (i, i * 3) :: (if i land 15 = 0 then [] else !acc)
  done;
  List.length !acc

(* About one burst on a quiet host of the test machine (a 2-core VM);
   only the scale of the reported times depends on it. *)
let reference_s = 0.08

(* The end time and duration of the latest burst. *)
let last = ref (Float.neg_infinity, 0.)

let burst () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (table_walk ()));
  ignore (Sys.opaque_identity (allocate ()));
  let t1 = Unix.gettimeofday () in
  last := (t1, t1 -. t0);
  t1 -. t0

(* Back-to-back pieces of work share the burst between them. *)
let recent_burst () =
  let t, d = !last in
  if Unix.gettimeofday () -. t < 0.5 then d else burst ()

(* [f ()] between two bursts: its result, its host seconds, and the
   factor that scales host seconds to reference seconds. *)
let measured f =
  let b0 = recent_burst () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let raw = Unix.gettimeofday () -. t0 in
  let b1 = burst () in
  (r, raw, reference_s *. 2. /. (b0 +. b1))

(* The traced run's span recorder. Every span is a call into one layer's
   public function, timed from the benchmark's side of the call: name,
   start, end, parent span, and the request index or fuzz seed it served.
   Spans stay in memory while the run measures and are written out once,
   at exit. Recording is off unless [enabled] is set, so the untraced
   run pays one branch per call. *)

type span = {
  id : int;
  parent : int;  (* id of the enclosing span; -1 at top level *)
  name : string;
  item : int;  (* request index or seed; -1 when the call serves none *)
  start : float;
  mutable stop : float;
  mutable children : float;  (* summed duration of direct children *)
  mutable minor_words : float;  (* allocated by this domain inside the span *)
}

let enabled = ref false
let spans : span list ref = ref []  (* newest first *)
let open_spans : span list ref = ref []
let next_id = ref 0

let record ?(item = -1) name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; parent; name; item; start = Unix.gettimeofday ();
        stop = 0.; children = 0.; minor_words = 0. }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let m0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        s.minor_words <- Gc.minor_words () -. m0;
        open_spans := List.tl !open_spans;
        (match !open_spans with
         | p :: _ -> p.children <- p.children +. (s.stop -. s.start)
         | [] -> ());
        spans := s :: !spans)
      f
  end

(* Run [f] with recording switched to [on], restoring the previous
   setting afterwards. *)
let with_recording on f =
  let was = !enabled in
  enabled := on;
  Fun.protect ~finally:(fun () -> enabled := was) f

(* A span's self time: its duration minus the part its children cover. *)
let self s = s.stop -. s.start -. s.children

let fold name f init =
  List.fold_left (fun acc s -> if s.name = name then f acc s else acc) init
    !spans

let self_seconds name = fold name (fun acc s -> acc +. self s) 0.
let calls name = fold name (fun acc _ -> acc + 1) 0
let minor_words name = fold name (fun acc s -> acc +. s.minor_words) 0.

(* Mean self time per call, in microseconds. *)
let mean_us name =
  let n = calls name in
  if n = 0 then 0. else self_seconds name /. float_of_int n *. 1e6

(* Seconds of self time spent in spans whose name satisfies [layer] —
   the time some named layer accounts for. *)
let attributed ~layer =
  List.fold_left
    (fun acc s -> if layer s.name then acc +. self s else acc)
    0. !spans

let to_json () =
  let open Trace.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [ ("id", Int s.id); ("parent", Int s.parent); ("name", Str s.name);
             ("item", Int s.item); ("start", Float s.start);
             ("end", Float s.stop); ("self_s", Float (self s));
             ("minor_words", Float s.minor_words) ])
       !spans)

let write path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Core.write_file path (Trace.Json.to_string (to_json ()) ^ "\n")

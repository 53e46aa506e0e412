(* The shipped checker plugins, Checkbochs-style: one hardware-level
   property per small module, each a [Trace.Plugin.spec] over the typed
   event stream. Attach them all with [attach_shipped], or one by its
   module's [spec]. *)

module Bounds_precision = Bounds_precision
module Stack_smash = Stack_smash
module Ldt_reuse = Ldt_reuse
module Fault_consistency = Fault_consistency

let all : Trace.Plugin.spec list =
  [
    Bounds_precision.spec;
    Stack_smash.spec;
    Ldt_reuse.spec;
    Fault_consistency.spec;
  ]

(* Instantiate every shipped plugin on [sink]. *)
let attach_shipped sink = List.iter (Trace.attach sink) all

(* Total violations across a sink's log that were recorded by shipped
   plugins (other checkers' violations are not counted). *)
let shipped_violations sink =
  let names = List.map (fun (s : Trace.Plugin.spec) -> s.p_name) all in
  List.filter (fun (checker, _) -> List.mem checker names)
    (Trace.violations sink)

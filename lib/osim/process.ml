(* A simulated user process: address space, LDT, CPU, and libc.

   [load] performs what execve + the loader would: creates a fresh LDT,
   wires an MMU to the shared GDT, initialises the segment registers to the
   Linux flat model (CS = user code; SS = DS = ES = user data; FS/GS null),
   maps and initialises the data section and the stack, and registers the
   libc host routines. Additional runtime externals (e.g. the Cash runtime)
   can be registered on [cpu] before [run]. *)

type t = {
  mutable pid : int; (* mutable only for snapshot restore *)
  kernel : Kernel.t;
  ldt : Seghw.Descriptor_table.t;
  mmu : Seghw.Mmu.t;
  phys : Machine.Phys_mem.t;
  cpu : Machine.Cpu.t;
  libc : Libc.t;
  program : Machine.Program.t;
  mutable created_at : int;
  mutable terminated_at : int;
}

let pid t = t.pid
let ldt t = t.ldt
let mmu t = t.mmu
let phys t = t.phys
let cpu t = t.cpu
let libc t = t.libc
let program t = t.program
let kernel t = t.kernel
let created_at t = t.created_at
let terminated_at t = t.terminated_at

let write_string_at phys mmu ~linear s =
  String.iteri
    (fun i c ->
      let p =
        Seghw.Mmu.translate_linear mmu ~linear:(linear + i) ~write:true
      in
      Machine.Phys_mem.write8 phys p (Char.code c))
    s

let load ?engine ~kernel (prog : Machine.Program.t) =
  let ldt = Seghw.Descriptor_table.create Seghw.Descriptor_table.Ldt_table in
  let mmu = Seghw.Mmu.create ~gdt:(Kernel.gdt kernel) ~ldt in
  let phys = Machine.Phys_mem.create () in
  (* Segment registers: the flat model. *)
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.CS Kernel.user_code_selector;
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.SS Kernel.user_data_selector;
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.DS Kernel.user_data_selector;
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.ES Kernel.user_data_selector;
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.FS Seghw.Selector.null;
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.GS Seghw.Selector.null;
  (* Stack. *)
  Seghw.Mmu.map_range mmu ~linear:Layout.stack_bottom ~size:Layout.stack_size
    ~writable:true;
  (* Data section. *)
  List.iter
    (fun (d : Machine.Program.datum) ->
      Seghw.Mmu.map_range mmu ~linear:d.Machine.Program.addr
        ~size:d.Machine.Program.size ~writable:true;
      match d.Machine.Program.init with
      | Some s -> write_string_at phys mmu ~linear:d.Machine.Program.addr s
      | None -> ())
    prog.Machine.Program.data;
  let cpu =
    Machine.Cpu.create ?engine ~mmu ~phys ~costs:(Kernel.costs kernel)
      ~program:prog ()
  in
  Machine.Registers.set (Machine.Cpu.regs cpu) Machine.Registers.ESP
    Layout.initial_esp;
  Machine.Registers.set (Machine.Cpu.regs cpu) Machine.Registers.EBP
    Layout.initial_esp;
  Machine.Cpu.set_kernel cpu (Kernel.handle_entry kernel ~ldt);
  let libc = Libc.create ~mmu in
  List.iter
    (fun (name, f) -> Machine.Cpu.register_external cpu name f)
    (Libc.externals libc);
  {
    pid = Kernel.fresh_pid kernel;
    kernel;
    ldt;
    mmu;
    phys;
    cpu;
    libc;
    program = prog;
    created_at = Kernel.clock kernel;
    terminated_at = -1;
  }

(* Run the process to completion; advances the kernel's global clock by the
   cycles consumed so the scheduler can compute spans (Table 8). *)
let run ?fuel t =
  t.created_at <- Kernel.clock t.kernel;
  let status = Machine.Cpu.run ?fuel t.cpu in
  Kernel.advance_clock t.kernel (Machine.Cpu.cycles t.cpu);
  t.terminated_at <- Kernel.clock t.kernel;
  status

let output t = Libc.output t.libc
let cycles t = Machine.Cpu.cycles t.cpu

(* Snapshot support: overwrite the identity fields of a freshly-loaded
   process with the serialized ones. [load] consumed a pid from its
   kernel; the snapshot's kernel state (restored separately) carries the
   original pid counter, so no pid is leaked or duplicated. *)
let restore_identity t ~pid ~created_at ~terminated_at =
  t.pid <- pid;
  t.created_at <- created_at;
  t.terminated_at <- terminated_at

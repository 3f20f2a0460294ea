(** Reference interpreter for Tasklang.

    Executes programs directly over a variable environment and an
    abstract 32-bit memory, with the same wrap-around semantics as the
    machine.  The property tests compile random programs, run them on the
    simulated CPU, and check the guest's results against this
    interpreter — a differential test of the whole pipeline (compiler →
    assembler → loader → CPU).

    Syscalls are modelled shallowly: [Delay]/[Yield] are no-ops, [Exit]
    stops execution, [Send] records the message.  A fuel bound guards
    non-terminating programs. *)

type state

val run :
  ?fuel:int ->
  ?load:(int -> int) ->
  ?store:(int -> int -> unit) ->
  Tytan_lang.Ast.program ->
  (state, string) result
(** Execute with the given MMIO hooks (defaults: loads read 0, stores are
    dropped).  [fuel] (default 100 000) bounds evaluated statements;
    running out is an [Error]. *)

val global : state -> string -> int
(** Final value of a global.  @raise Not_found *)

val sent : state -> (int list * Tytan_core.Task_id.t * bool) list
(** Messages sent, oldest first: payload, receiver, sync flag. *)

val exited : state -> bool

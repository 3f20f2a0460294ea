(** tycheck — load-time static verification of TELF task binaries.

    One entry point, four always-on checks over a recovered CFG and an
    abstract interpretation of the 32-bit ISA, plus two opt-in flow
    checks:

    + {b memory safety} — every statically resolvable load/store lands
      in the task's own allocation or a declared MMIO/IPC window;
    + {b CFI} — every transfer lands on a decoded instruction boundary
      in the text, indirect jumps restricted to relocation-derived
      targets;
    + {b stack bound} — worst-case depth (plus one context frame)
      within the declared [stack_size], recursion rejected;
    + {b WCET} — worst-case cycles between yield points, composed from
      compiler loop-bound annotations;
    + {b flow} (with [config.flow]) — no secret material reaches an IPC
      payload or a non-crypto MMIO store ({!Flowcheck});
    + {b topology} (with [config.flow]) — every statically addressed
      IPC peer is declared in the binary's {!Tytan_telf.Manifest}.

    The verdict vocabulary is deliberately three-valued: a [Violation]
    is {e proven} misbehaviour and makes {!ok} false; an [Unknown] is an
    honest "the abstract domain lost track here" and only fails
    {!strict_ok}.  [check] never raises — malformed input produces a
    report carrying violations, which is what the fuzz harness and the
    loader's vet mode rely on. *)

open Tytan_telf

type config = {
  windows : (int * int) list;
      (** absolute [(base, size)] regions tasks may touch (MMIO, shared
          IPC memory) *)
  loop_bounds : (int * int) list;
      (** loop-header byte offset → max header executions per entry *)
  inbox_bytes : int;  (** bytes of IPC inbox in the task allocation *)
  r12_inbox : bool;
      (** model the secure-task convention that r12 holds the inbox
          pointer at entry *)
  context_frame_bytes : int;
      (** bytes an interrupt can push on top of the task's own peak *)
  flow : Flowcheck.config option;
      (** when set, additionally run the secret-flow and IPC-topology
          checks ({!Flowcheck}) as the fifth and sixth passes *)
}

val default_config : config
(** MMIO window [0xF000_0000, +0x1000_0000), no loop bounds, 64-byte
    inbox, r12 convention on, 68-byte context frame — matching the
    platform defaults without depending on the core library.  Flow
    vetting off (the original four checks). *)

val flow_config : config
(** {!default_config} with {!Flowcheck.default_config} enabled — the
    six-check configuration the flow-vetting loader and
    [tytan lint --flow] use. *)

type report = {
  findings : Finding.t list;  (** sorted most severe first *)
  instr_count : int;
  reachable_count : int;
  wcet : [ `Cycles of int | `Unbounded ];
  stack : [ `Bytes of int | `Unbounded ];
}

val check : ?config:config -> Telf.t -> report

val ok : report -> bool
(** No violations (unknowns tolerated). *)

val strict_ok : report -> bool
(** No violations and no unknowns. *)

val violations : report -> Finding.t list

val first_violation : report -> string option
(** Rendered first violation, for one-line refusal messages. *)

val strict_refusal : report -> string option
(** The rendered first violation, else the first unknown; [None] exactly
    when {!strict_ok} holds.  The OTA gate's and [Update.apply]'s reason. *)

val pp_report : Format.formatter -> report -> unit

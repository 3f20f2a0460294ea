(** Cycle-cost constants for TyTAN's trusted-software primitives.

    The simulator charges guest instructions their ISA costs automatically;
    trusted components (whose logic runs host-side) charge cycles
    explicitly, using the constants below.  Each constant is calibrated
    against a published measurement from the paper's evaluation, noted next
    to it.  The {e structure} of each operation — what is iterated per
    register, per relocated address, per hash block, per EA-MPU slot — is
    fixed by the implementation; only the absolute scale comes from here.
    That is what makes linearity, crossovers and overhead orderings
    emergent rather than baked in. *)

(** {2 Context switching (Tables 2 and 3)} *)

val freertos_save : int
(** Baseline register save by the unmodified-FreeRTOS interrupt handler
    (38; Table 2's secure total of 95 minus its overhead of 57). *)

val freertos_restore : int
(** Baseline context restore (254; Table 3: 384 total − 130 overhead). *)

val int_mux_store_context : int
(** Int Mux: store the 15 software-saved registers to the secure task's
    stack (38; Table 2 "Store context"). *)

val int_mux_wipe_registers : int
(** Int Mux: clear the CPU registers before the untrusted handler runs
    (16; Table 2 "Wipe registers"). *)

val int_mux_branch : int
(** Int Mux: locate and branch to the handling routine (41; Table 2
    "Branch"). *)

val int_mux_restore_branch : int
(** Restore path: branch into the secure task's entry routine, including
    the EA-MPU entry-point validation (106; Table 3 "Branch"). *)

val int_mux_restore_assist : int
(** Host-charged share of the restore (Table 3 "Restore" is 254 in the
    paper; the entry routine's pops and IRET execute as real guest
    instructions costing ≈40 cycles, so the Int Mux charges the
    remainder, 214). *)

(** {2 Relocation (Table 5)} *)

val reloc_base : int
(** Fixed cost of a relocation pass (37; Table 5 row n=0). *)

val reloc_per_address : int
(** Cost per patched address (660; Table 5 slope ≈ 660–670). *)

(** {2 EA-MPU driver (Table 6)} *)

val eampu_find_slot_base : int
(** Probing slot 1 (76). *)

val eampu_find_slot_step : int
(** Additional cost per slot probed (19; Table 6: 95 at position 2,
    399 at position 18). *)

val eampu_policy_check : int
(** Checking a candidate rule against every installed rule (824). *)

val eampu_write_rule : int
(** Writing the rule to the EA-MPU configuration registers (225). *)

(** {2 RTM measurement (Table 7)} *)

val rtm_measure_base : int
(** Per-measurement setup and finalisation (4 300; paper's formula). *)

val rtm_per_block : int
(** Per 64-byte SHA-1 block (3 933; Table 7 slope
    (35 790 − 8 261) / 7). *)

val rtm_revert_base : int
(** Fixed cost of the relocation revert (114; Table 7 row a=0). *)

val rtm_revert_per_address : int
(** Per reverted address (518; Table 7 slope ≈ 518–566). *)

val crypto_per_compression : int
(** Cycle price of one SHA-1 compression invocation, used by every
    trusted service that MACs or derives keys (same 3 933 as the RTM —
    it is the same primitive). *)

(** {2 Loader (Table 4)} *)

val loader_parse_header : int
val loader_alloc : int
val loader_copy_per_byte : int
(** 50 cycles/byte, calibrated so that creating the paper's 3 962-byte
    task costs ≈200 k cycles excluding measurement (Table 4, normal row:
    208 808 overall). *)

val loader_stack_prep : int
val loader_register : int
(** Handing the task to the scheduler — paper step (6). *)

val loader_copy_chunk : int
(** Bytes copied per interruptible loader step (512). *)

val vet_base : int
val vet_per_instruction : int
(** Static verification (tycheck) of a submitted binary during the parse
    phase, charged per text instruction.  This is an extension beyond the
    paper — TyTAN itself trusts the tool chain — so the constants are
    plausible-effort, not Table-4 calibrated. *)

val vet_flow : int
(** Additional per-instruction cycles when flow vetting is enabled: the
    taint worklist and topology extraction ride the already-computed
    dataflow, so the increment is cheaper than the base abstract
    interpretation (60 vs 120 cycles per instruction). *)

val cfa_log_event : int
(** Control-flow attestation: appending one edge to the hash-chained
    branch log (three word stores to the protected ring, a counter
    update, and the amortised share of the running-digest extension).
    Like the vet costs this extends the paper (Tiny-CFA-style logging),
    so the constant is plausible-effort: 48 cycles, the same order as
    the Int Mux's per-interrupt bookkeeping.  Charged once per logged
    event — total logging overhead is exactly linear in the number of
    control-flow events. *)

(** {2 Secure IPC (§6)} *)

val ipc_origin_lookup : int
(** Reading the interrupt origin from the hardware (76). *)

val ipc_sender_lookup : int
(** Mapping the origin EIP to the sender's identity (214). *)

val ipc_receiver_lookup : int
(** Finding the receiver's memory location in the RTM's list (214). *)

val ipc_copy_message : int
(** Writing the 8-word message and the sender identity to the receiver's
    inbox (512). *)

val ipc_finish : int
(** Branch/continue bookkeeping (192).  The five components total 1 208,
    the paper's IPC-proxy cost; the receiver's entry routine runs as
    guest code (paper: 116 cycles). *)

val ipc_proxy_total : int
(** Sum of the five proxy components (1 208). *)

(** {2 Secure boot} *)

val boot_verify_per_block : int
(** Verifying a trusted component at boot hashes its region; charged per
    64-byte block like any other measurement. *)

(** {2 Telemetry (observability extension)}

    Observation is part of the machine: when the telemetry registry is
    enabled, every recorded event and span charges the simulated clock,
    so instrumented runs honestly include the cost of instrumenting.
    When disabled the cost is exactly zero (asserted cycle-exact in
    tests). *)

val telemetry_event : int
(** Recording one metric event — counter bump, gauge store, or histogram
    observation (24; a guarded store plus index arithmetic). *)

val telemetry_span : int
(** Opening and closing one timed span — two clock reads plus ring-buffer
    bookkeeping (56).  Charged in full when the span closes. *)

val pmu_read : int
(** One MMIO read of a PMU counter register (34; an uncached peripheral
    bus transaction, charged before the counter is sampled). *)

(** {2 Runtime task update (extension)} *)

val update_swap_base : int
(** The atomic suspend–activate swap of a live update (350; scheduler
    list surgery, same order as a context switch pair). *)

val update_migrate_per_word : int
(** Copying one word of task state across protection domains during the
    swap (16; a checked read plus a checked write). *)

(** {2 Fleet-scale swarm attestation (extension)} *)

val sha256_per_compression : int
(** Cycle price of one SHA-256 compression invocation (5 702 = 1.45 ×
    the SHA-1 figure, matching the benchmark's hash-algorithm ablation).
    The Merkle aggregator charges its tree work at this rate. *)

val swarm_cache_lookup : int
(** One probe of the verifier-side measurement cache — a hash-table
    lookup plus an epoch tag compare (24; same order as a telemetry
    event, it is the same kind of guarded table access). *)

val swarm_root_check : int
(** Comparing a cached verdict's batch root against the sealed epoch
    roots (40; a table probe plus a 32-byte constant-time compare). *)

val swarm_liveness : int
(** Processing one out-of-band keepalive from a device the incremental
    verifier chose not to re-challenge this epoch (32; a table probe
    plus an epoch stamp).  The price of carrying a healthy device in
    steady state — the O(changed) epoch's per-device floor. *)

(** {2 Over-the-air update (extension)} *)

val counter_read : int
(** One MMIO read of a monotonic-counter register (28; an uncached
    peripheral bus transaction, slightly cheaper than the PMU's wider
    sample). *)

val counter_increment : int
(** One monotonic-counter tick (180; a non-volatile cell write with
    read-back — the reason bulk version advances cost proportionally). *)

val ota_offer_check : int
(** Parsing and policy-checking one signed update offer, excluding the
    MAC itself which is charged per compression (260; header parse plus
    version/size validation, on the order of the loader's header
    parse). *)

val ota_chunk_base : int
(** Per-chunk bookkeeping of the staged-image assembly buffer (96;
    cursor checks and bounds tests — the copy itself is charged at
    [loader_copy_per_byte] when the image is loaded). *)

(** {2 Charging host-side hashing} *)

val charge_hashing : Tytan_machine.Cycles.t -> (unit -> 'a) -> 'a
(** [charge_hashing clock f] runs [f] and charges [clock] for every SHA-1
    and SHA-256 compression the {e calling domain} performed meanwhile,
    at [crypto_per_compression] and [sha256_per_compression].  The
    counters sampled are domain-local, so a charge is exact even while
    other domains hash concurrently — the one helper every engine
    (swarm, gateway, rollout, aggregator) charges its crypto through. *)

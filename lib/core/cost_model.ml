let freertos_save = 38
let freertos_restore = 254
let int_mux_store_context = 38
let int_mux_wipe_registers = 16
let int_mux_branch = 41
let int_mux_restore_branch = 106
let int_mux_restore_assist = 214
let reloc_base = 37
let reloc_per_address = 660
let eampu_find_slot_base = 76
let eampu_find_slot_step = 19
let eampu_policy_check = 824
let eampu_write_rule = 225
let rtm_measure_base = 4_300
let rtm_per_block = 3_933
let rtm_revert_base = 114
let rtm_revert_per_address = 518
let crypto_per_compression = rtm_per_block
let loader_parse_header = 500
let loader_alloc = 300
let loader_copy_per_byte = 50
let loader_stack_prep = 400
let loader_register = 300
let loader_copy_chunk = 512
let vet_base = 900
let vet_per_instruction = 120
let vet_flow = 60

let vet_cycles ~flow ~slots =
  vet_base + ((vet_per_instruction + if flow then vet_flow else 0) * slots)

let cfa_log_event = 48
let ipc_origin_lookup = 76
let ipc_sender_lookup = 214
let ipc_receiver_lookup = 214
let ipc_copy_message = 512
let ipc_finish = 192

let ipc_proxy_total =
  ipc_origin_lookup + ipc_sender_lookup + ipc_receiver_lookup
  + ipc_copy_message + ipc_finish

let boot_verify_per_block = rtm_per_block
let telemetry_event = 24
let telemetry_span = 56
let pmu_read = 34
let update_swap_base = 350
let update_migrate_per_word = 16
let sha256_per_compression = crypto_per_compression * 145 / 100
let swarm_cache_lookup = 24
let swarm_root_check = 40
let swarm_liveness = 32
let counter_read = 28
let counter_increment = 180
let ota_offer_check = 260
let ota_chunk_base = 96

(* Both billed counts packed into one immediate int, SHA-1 in the low
   32 bits, so a mark allocates nothing.  Marks wrap; the difference of
   two still decodes exactly while the span between them billed fewer
   than 2^32 SHA-1 and 2^30 SHA-256 compressions. *)
type hashing = int

let sha1_part h = h land 0xFFFF_FFFF
let sha256_part h = h lsr 32

let hashing_mark () =
  Tytan_crypto.Sha1.domain_compressions ()
  + (Tytan_crypto.Sha256.domain_compressions () lsl 32)

let hashing_since mark = hashing_mark () - mark

let charge_hashing clock f =
  let mark = hashing_mark () in
  let r = f () in
  let h = hashing_since mark in
  if sha1_part h > 0 then
    Tytan_machine.Cycles.charge clock (sha1_part h * crypto_per_compression);
  if sha256_part h > 0 then
    Tytan_machine.Cycles.charge clock (sha256_part h * sha256_per_compression);
  r

let replay_hashing h =
  Tytan_crypto.Sha1.bill_domain (sha1_part h);
  Tytan_crypto.Sha256.bill_domain (sha256_part h)

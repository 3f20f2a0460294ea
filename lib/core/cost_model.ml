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

let charge_hashing clock f =
  let s1 = Tytan_crypto.Sha1.domain_compressions () in
  let s2 = Tytan_crypto.Sha256.domain_compressions () in
  let r = f () in
  let d1 = Tytan_crypto.Sha1.domain_compressions () - s1 in
  let d2 = Tytan_crypto.Sha256.domain_compressions () - s2 in
  if d1 > 0 then Tytan_machine.Cycles.charge clock (d1 * crypto_per_compression);
  if d2 > 0 then Tytan_machine.Cycles.charge clock (d2 * sha256_per_compression);
  r

(* Incremental-verification substrate tests.

   Three layers back the fleet engine's O(changed) epoch claim:

   - The optimized SHA-1/SHA-256 compress loops (preallocated message
     schedules, unsafe accessors) are differentially tested against the
     pre-optimization implementations, kept verbatim below as oracles,
     plus NIST one-shot vectors — a hash that drifts by one bit would
     silently invalidate every sealed root.
   - The compression counters moved to Atomic/domain-local storage for
     the parallel engine; a multi-domain hammer pins the exact global
     count and the per-domain isolation the cycle-charging discipline
     depends on.
   - Merkle.Inc's dirty-path commit is property-tested equivalent to
     rebuilding from scratch (roots and proofs bit-identical), and
     proofs from a superseded commit must not verify against the new
     root. *)

module Crypto = Tytan_crypto
open Crypto

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Oracles: the pre-optimization hashes, kept verbatim ------------------ *)

module Ref_sha1 = struct
  let block_size = 64
  let mask32 = 0xFFFF_FFFF

  type ctx = {
    mutable h0 : int;
    mutable h1 : int;
    mutable h2 : int;
    mutable h3 : int;
    mutable h4 : int;
    buffer : Bytes.t;
    mutable buffered : int;
    mutable total_bytes : int;
  }

  let init () =
    {
      h0 = 0x67452301;
      h1 = 0xEFCDAB89;
      h2 = 0x98BADCFE;
      h3 = 0x10325476;
      h4 = 0xC3D2E1F0;
      buffer = Bytes.make block_size '\000';
      buffered = 0;
      total_bytes = 0;
    }

  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

  let compress ctx block pos =
    let w = Array.make 80 0 in
    for i = 0 to 15 do
      w.(i) <-
        (Char.code (Bytes.get block (pos + (4 * i))) lsl 24)
        lor (Char.code (Bytes.get block (pos + (4 * i) + 1)) lsl 16)
        lor (Char.code (Bytes.get block (pos + (4 * i) + 2)) lsl 8)
        lor Char.code (Bytes.get block (pos + (4 * i) + 3))
    done;
    for i = 16 to 79 do
      w.(i) <-
        rotl (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
    done;
    let a = ref ctx.h0
    and b = ref ctx.h1
    and c = ref ctx.h2
    and d = ref ctx.h3
    and e = ref ctx.h4 in
    for i = 0 to 79 do
      let f, k =
        if i < 20 then
          (!b land !c lor (lnot !b land mask32 land !d), 0x5A827999)
        else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
        else if i < 60 then
          (!b land !c lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
        else (!b lxor !c lxor !d, 0xCA62C1D6)
      in
      let temp = (rotl !a 5 + f + !e + k + w.(i)) land mask32 in
      e := !d;
      d := !c;
      c := rotl !b 30;
      b := !a;
      a := temp
    done;
    ctx.h0 <- (ctx.h0 + !a) land mask32;
    ctx.h1 <- (ctx.h1 + !b) land mask32;
    ctx.h2 <- (ctx.h2 + !c) land mask32;
    ctx.h3 <- (ctx.h3 + !d) land mask32;
    ctx.h4 <- (ctx.h4 + !e) land mask32

  let feed ctx data =
    let len = Bytes.length data in
    ctx.total_bytes <- ctx.total_bytes + len;
    let consumed = ref 0 in
    if ctx.buffered > 0 then begin
      let take = min len (block_size - ctx.buffered) in
      Bytes.blit data 0 ctx.buffer ctx.buffered take;
      ctx.buffered <- ctx.buffered + take;
      consumed := take;
      if ctx.buffered = block_size then begin
        compress ctx ctx.buffer 0;
        ctx.buffered <- 0
      end
    end;
    while len - !consumed >= block_size do
      compress ctx data !consumed;
      consumed := !consumed + block_size
    done;
    let tail = len - !consumed in
    if tail > 0 then begin
      Bytes.blit data !consumed ctx.buffer ctx.buffered tail;
      ctx.buffered <- ctx.buffered + tail
    end

  let finalize ctx =
    let bit_length = ctx.total_bytes * 8 in
    let pad_len =
      let rem = (ctx.total_bytes + 1) mod block_size in
      if rem <= 56 then 56 - rem + 1 else block_size - rem + 56 + 1
    in
    let padding = Bytes.make (pad_len + 8) '\000' in
    Bytes.set padding 0 '\x80';
    for i = 0 to 7 do
      Bytes.set padding
        (pad_len + i)
        (Char.chr ((bit_length lsr (8 * (7 - i))) land 0xFF))
    done;
    feed ctx padding;
    let out = Bytes.create 20 in
    let put i v =
      Bytes.set out i (Char.chr ((v lsr 24) land 0xFF));
      Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xFF));
      Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set out (i + 3) (Char.chr (v land 0xFF))
    in
    put 0 ctx.h0;
    put 4 ctx.h1;
    put 8 ctx.h2;
    put 12 ctx.h3;
    put 16 ctx.h4;
    out

  let digest data =
    let ctx = init () in
    feed ctx data;
    finalize ctx
end

module Ref_sha256 = struct
  let block_size = 64
  let mask32 = 0xFFFF_FFFF

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  type ctx = {
    h : int array;
    buffer : Bytes.t;
    mutable buffered : int;
    mutable total_bytes : int;
  }

  let init () =
    {
      h =
        [|
          0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
          0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
        |];
      buffer = Bytes.make block_size '\000';
      buffered = 0;
      total_bytes = 0;
    }

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32
  let shr x n = x lsr n

  let compress ctx block pos =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      w.(i) <-
        (Char.code (Bytes.get block (pos + (4 * i))) lsl 24)
        lor (Char.code (Bytes.get block (pos + (4 * i) + 1)) lsl 16)
        lor (Char.code (Bytes.get block (pos + (4 * i) + 2)) lsl 8)
        lor Char.code (Bytes.get block (pos + (4 * i) + 3))
    done;
    for i = 16 to 63 do
      let s0 =
        rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor shr w.(i - 15) 3
      in
      let s1 =
        rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor shr w.(i - 2) 10
      in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
    done;
    let a = ref ctx.h.(0)
    and b = ref ctx.h.(1)
    and c = ref ctx.h.(2)
    and d = ref ctx.h.(3)
    and e = ref ctx.h.(4)
    and f = ref ctx.h.(5)
    and g = ref ctx.h.(6)
    and h = ref ctx.h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = !e land !f lxor (lnot !e land mask32 land !g) in
      let temp1 = (!h + s1 + ch + k.(i) + w.(i)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask32 in
      h := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask32
    done;
    let update i v = ctx.h.(i) <- (ctx.h.(i) + v) land mask32 in
    update 0 !a;
    update 1 !b;
    update 2 !c;
    update 3 !d;
    update 4 !e;
    update 5 !f;
    update 6 !g;
    update 7 !h

  let feed ctx data =
    let len = Bytes.length data in
    ctx.total_bytes <- ctx.total_bytes + len;
    let consumed = ref 0 in
    if ctx.buffered > 0 then begin
      let take = min len (block_size - ctx.buffered) in
      Bytes.blit data 0 ctx.buffer ctx.buffered take;
      ctx.buffered <- ctx.buffered + take;
      consumed := take;
      if ctx.buffered = block_size then begin
        compress ctx ctx.buffer 0;
        ctx.buffered <- 0
      end
    end;
    while len - !consumed >= block_size do
      compress ctx data !consumed;
      consumed := !consumed + block_size
    done;
    let tail = len - !consumed in
    if tail > 0 then begin
      Bytes.blit data !consumed ctx.buffer ctx.buffered tail;
      ctx.buffered <- ctx.buffered + tail
    end

  let finalize ctx =
    let bit_length = ctx.total_bytes * 8 in
    let pad_len =
      let rem = (ctx.total_bytes + 1) mod block_size in
      if rem <= 56 then 56 - rem + 1 else block_size - rem + 56 + 1
    in
    let padding = Bytes.make (pad_len + 8) '\000' in
    Bytes.set padding 0 '\x80';
    for i = 0 to 7 do
      Bytes.set padding
        (pad_len + i)
        (Char.chr ((bit_length lsr (8 * (7 - i))) land 0xFF))
    done;
    feed ctx padding;
    let out = Bytes.create 32 in
    Array.iteri
      (fun i v ->
        Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
        Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
        Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
        Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF)))
      ctx.h;
    out

  let digest data =
    let ctx = init () in
    feed ctx data;
    finalize ctx
end

(* --- Differential: optimized compress vs oracle --------------------------- *)

(* Random payloads with random streaming chunk boundaries: the optimized
   loops must agree with the oracles on every byte and every buffering
   path (partial-block top-up, whole blocks from input, buffered tail). *)
let chunked_gen =
  QCheck.Gen.(
    let* n = int_range 0 700 in
    let* bytes = string_size ~gen:(map Char.chr (int_range 0 255)) (return n) in
    let* cuts = list_size (int_range 0 6) (int_range 0 (max 1 n)) in
    return (bytes, List.sort_uniq compare cuts))

let chunked_arb =
  QCheck.make chunked_gen ~print:(fun (s, cuts) ->
      Printf.sprintf "len=%d cuts=[%s]" (String.length s)
        (String.concat ";" (List.map string_of_int cuts)))

let feed_chunks ~feed_sub ctx data cuts =
  let n = Bytes.length data in
  let bounds = List.filter (fun c -> c <= n) cuts @ [ n ] in
  let pos = ref 0 in
  List.iter
    (fun c ->
      if c > !pos then begin
        feed_sub ctx data ~pos:!pos ~len:(c - !pos);
        pos := c
      end)
    bounds

let sha_differential_tests =
  let count = 300 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:"sha1 streaming == reference oracle"
         chunked_arb (fun (s, cuts) ->
           let data = Bytes.of_string s in
           let ctx = Sha1.init () in
           feed_chunks ~feed_sub:Sha1.feed_sub ctx data cuts;
           Sha1.finalize ctx = Ref_sha1.digest data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:"sha256 streaming == reference oracle"
         chunked_arb (fun (s, cuts) ->
           let data = Bytes.of_string s in
           let ctx = Sha256.init () in
           feed_chunks ~feed_sub:Sha256.feed_sub ctx data cuts;
           Sha256.finalize ctx = Ref_sha256.digest data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"ctx copy is independent (HMAC state caching)" chunked_arb
         (fun (s, _) ->
           (* Hmac.prepare/mac_with clone a fed context; finalizing the
              clone must not disturb the original, and both must agree
              with the oracle. *)
           let data = Bytes.of_string s in
           let ctx = Sha1.init () in
           Sha1.feed ctx data;
           let clone = Sha1.copy ctx in
           Sha1.feed clone data;
           let d2 = Sha1.finalize clone in
           let d1 = Sha1.finalize ctx in
           d1 = Ref_sha1.digest data
           && d2 = Ref_sha1.digest (Bytes.cat data data)));
    Alcotest.test_case "sha256 NIST million-a vector" `Slow (fun () ->
        Alcotest.(check string) "vector"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Sha256.to_hex (Sha256.digest (Bytes.make 1_000_000 'a'))));
    Alcotest.test_case "sha256 NIST four-block vector" `Quick (fun () ->
        Alcotest.(check string) "vector"
          "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
          (Sha256.to_hex
             (Sha256.digest_string
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                 ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")));
    Alcotest.test_case "hmac prepared state == one-shot mac" `Quick (fun () ->
        (* The aggregator's per-device key-schedule cache: mac_with over
           a prepared state must be byte- and cost-identical to mac. *)
        let key = Bytes.of_string "per-device-attestation-key" in
        let state = Hmac.prepare ~key in
        List.iter
          (fun msg ->
            let m = Bytes.of_string msg in
            check_bool ("msg " ^ msg) true (Hmac.mac_with state m = Hmac.mac ~key m))
          [ ""; "x"; String.make 55 'p'; String.make 64 'q'; String.make 200 'r' ];
        let c0 = Sha1.total_compressions () in
        ignore (Hmac.mac_with state (Bytes.of_string "one-block message"));
        check_int "cached state: 2 compressions per short MAC" 2
          (Sha1.total_compressions () - c0));
  ]

(* --- Atomic counters under domain parallelism ------------------------------ *)

let hammer_domains = 4
let hammer_digests = 250

let counter_tests =
  [
    Alcotest.test_case "4-domain hammer: exact global compression count"
      `Quick (fun () ->
        (* A 64-byte message is exactly 2 compressions (data block +
           padding block); 4 domains x 250 digests must bump the global
           Atomic by exactly 4 * 250 * 2 with no lost updates, and each
           domain's local counter must see only its own work. *)
        let g0 = Sha1.total_compressions () in
        let worker () =
          let d0 = Sha1.domain_compressions () in
          for i = 1 to hammer_digests do
            ignore (Sha1.digest (Bytes.make 64 (Char.chr (i land 0xFF))))
          done;
          Sha1.domain_compressions () - d0
        in
        let spawned =
          Array.init (hammer_domains - 1) (fun _ -> Domain.spawn worker)
        in
        let mine = worker () in
        let locals = mine :: Array.to_list (Array.map Domain.join spawned) in
        List.iteri
          (fun i local ->
            check_int
              (Printf.sprintf "domain %d local count" i)
              (hammer_digests * 2) local)
          locals;
        check_int "global atomic total"
          (hammer_domains * hammer_digests * 2)
          (Sha1.total_compressions () - g0));
    Alcotest.test_case "sha256 domain counter isolated too" `Quick (fun () ->
        let g0 = Sha256.total_compressions () in
        let other =
          Domain.spawn (fun () ->
              for _ = 1 to 50 do
                ignore (Sha256.digest (Bytes.make 64 'z'))
              done;
              Sha256.domain_compressions ())
        in
        let d0 = Sha256.domain_compressions () in
        ignore (Sha256.digest (Bytes.make 64 'y'));
        let mine = Sha256.domain_compressions () - d0 in
        let theirs = Domain.join other in
        check_int "my domain saw only my 2" 2 mine;
        check_bool "other domain saw at least its 100" true (theirs >= 100);
        check_int "global saw everything" 102 (Sha256.total_compressions () - g0));
    Alcotest.test_case "charging is exact while another domain hashes" `Quick
      (fun () ->
        (* Every engine charges crypto through [Cost_model.charge_hashing].
           Here the main domain charges its own SHA-1 and SHA-256 work
           while a second domain hashes throughout the charged window —
           at least 50 rounds of it, by construction — and the bill must
           still be exactly the main domain's compressions. *)
        let module Cycles = Tytan_machine.Cycles in
        let module Cost_model = Tytan_core.Cost_model in
        let started = Atomic.make false in
        let stop = Atomic.make false in
        let rounds = Atomic.make 0 in
        let other =
          Domain.spawn (fun () ->
              Atomic.set started true;
              while not (Atomic.get stop) do
                ignore (Sha1.digest (Bytes.make 64 'o'));
                ignore (Sha256.digest (Bytes.make 64 'o'));
                Atomic.incr rounds
              done)
        in
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let clock = Cycles.create () in
        let g0 = Sha1.total_compressions () in
        let r0 = Atomic.get rounds in
        let mine = ref 0 in
        Cost_model.charge_hashing clock (fun () ->
            while Atomic.get rounds - r0 < 50 do
              ignore (Sha1.digest (Bytes.make 64 'm'));
              ignore (Sha256.digest (Bytes.make 64 'm'));
              incr mine
            done);
        let global = Sha1.total_compressions () - g0 in
        Atomic.set stop true;
        Domain.join other;
        check_int "charged exactly this domain's compressions"
          (!mine
          * ((2 * Cost_model.crypto_per_compression)
            + (2 * Cost_model.sha256_per_compression)))
          (Cycles.now clock);
        check_bool "a process-global sampler would have overcharged" true
          (global > 2 * !mine));
  ]

(* --- Merkle.Inc: dirty-path commit == full rebuild ------------------------- *)

type inc_op =
  | Append of string
  | Set of int * string  (* index is taken mod current size *)
  | Commit

let op_gen =
  QCheck.Gen.(
    let payload = string_size ~gen:printable (int_range 0 24) in
    frequency
      [
        (4, map (fun s -> Append s) payload);
        (3, map2 (fun i s -> Set (i, s)) (int_range 0 1000) payload);
        (2, return Commit);
      ])

let ops_arb =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 60) op_gen)
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Append s -> Printf.sprintf "A%d" (String.length s)
             | Set (i, s) -> Printf.sprintf "S%d/%d" i (String.length s)
             | Commit -> "C")
           ops))

(* Replay the op sequence against both the incremental tree and a plain
   list model; at every commit the incremental root must equal a
   from-scratch [Merkle.build] over the model, and every leaf's proof
   must verify against it. *)
let replay ops =
  let inc = Merkle.Inc.create () in
  let model = ref [] in
  (* newest first *)
  let size () = List.length !model in
  let ok = ref true in
  let check_commit () =
    if size () > 0 then begin
      let leaves = Array.of_list (List.rev !model) in
      let expected = Merkle.root (Merkle.build leaves) in
      let got = Merkle.Inc.commit inc in
      if got <> expected then ok := false;
      Array.iteri
        (fun i leaf ->
          if
            not
              (Merkle.verify ~root:expected ~leaf (Merkle.Inc.proof inc i))
          then ok := false)
        leaves
    end
  in
  List.iter
    (fun op ->
      match op with
      | Append s ->
          let i = Merkle.Inc.append inc (Bytes.of_string s) in
          if i <> size () then ok := false;
          model := Bytes.of_string s :: !model
      | Set (i, s) ->
          if size () > 0 then begin
            let i = i mod size () in
            Merkle.Inc.set inc i (Bytes.of_string s);
            model :=
              List.rev
                (List.mapi
                   (fun j b -> if j = i then Bytes.of_string s else b)
                   (List.rev !model))
          end
      | Commit -> check_commit ())
    ops;
  check_commit ();
  !ok

let merkle_inc_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"dirty-path commit == full rebuild (roots and proofs)" ops_arb
         replay);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"proofs from a superseded commit are rejected"
         QCheck.(pair (int_range 2 40) (int_range 0 1000))
         (fun (n, j) ->
           let inc = Merkle.Inc.create () in
           for i = 0 to n - 1 do
             ignore (Merkle.Inc.append inc (Bytes.of_string (string_of_int i)))
           done;
           let root1 = Merkle.Inc.commit inc in
           let j = j mod n in
           let old_leaf = Bytes.of_string (string_of_int j) in
           let old_proof = Merkle.Inc.proof inc j in
           Merkle.Inc.set inc j (Bytes.of_string "mutated");
           let root2 = Merkle.Inc.commit inc in
           (* the old proof was valid against its own epoch's root... *)
           Merkle.verify ~root:root1 ~leaf:old_leaf old_proof
           (* ...and must not carry over to the new one *)
           && not (Merkle.verify ~root:root2 ~leaf:old_leaf old_proof)
           && Merkle.verify ~root:root2 ~leaf:(Bytes.of_string "mutated")
                (Merkle.Inc.proof inc j)));
    Alcotest.test_case "growth across commits matches rebuild" `Quick (fun () ->
        (* Crossing power-of-two boundaries exercises the odd-node
           promotion and the grown-level boundary rule. *)
        let inc = Merkle.Inc.create () in
        let model = ref [] in
        for n = 0 to 40 do
          ignore (Merkle.Inc.append inc (Bytes.of_string (string_of_int n)));
          model := !model @ [ Bytes.of_string (string_of_int n) ];
          let expected = Merkle.root (Merkle.build (Array.of_list !model)) in
          check_bool
            (Printf.sprintf "root at size %d" (n + 1))
            true
            (Merkle.Inc.commit inc = expected)
        done);
    Alcotest.test_case "root/proof refuse uncommitted changes" `Quick (fun () ->
        let inc = Merkle.Inc.create () in
        ignore (Merkle.Inc.append inc (Bytes.of_string "x"));
        check_bool "root raises" true
          (try
             ignore (Merkle.Inc.root inc);
             false
           with Invalid_argument _ -> true);
        ignore (Merkle.Inc.commit inc);
        ignore (Merkle.Inc.root inc);
        Merkle.Inc.set inc 0 (Bytes.of_string "y");
        check_bool "proof raises after set" true
          (try
             ignore (Merkle.Inc.proof inc 0);
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "incremental"
    [
      ("sha-differential", sha_differential_tests);
      ("atomic-counters", counter_tests);
      ("merkle-inc", merkle_inc_tests);
    ]

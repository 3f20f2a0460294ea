(* SHA-1 per RFC 3174: its lanes and its compression function.  {!Md.Make}
   frames the blocks, pads, counts and renders.

   The compression loop is the hottest code in the whole simulator —
   every measurement, MAC and Merkle node lands here — so it allocates
   nothing: the 80-word message schedule is preallocated in the context,
   and the unsafe accesses stay inside its 80 words. *)

let mask32 = 0xFFFF_FFFF
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

include Md.Make (struct
  let name = "Sha1"
  let iv = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |]
  let schedule_words = 80

  let compress h w =
    for i = 16 to 79 do
      let x =
        Array.unsafe_get w (i - 3)
        lxor Array.unsafe_get w (i - 8)
        lxor Array.unsafe_get w (i - 14)
        lxor Array.unsafe_get w (i - 16)
      in
      Array.unsafe_set w i (((x lsl 1) lor (x lsr 31)) land mask32)
    done;
    let a = ref h.(0)
    and b = ref h.(1)
    and c = ref h.(2)
    and d = ref h.(3)
    and e = ref h.(4) in
    for i = 0 to 79 do
      let f, k =
        if i < 20 then (!b land !c lor (lnot !b land mask32 land !d), 0x5A827999)
        else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
        else if i < 60 then
          (!b land !c lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
        else (!b lxor !c lxor !d, 0xCA62C1D6)
      in
      let temp = (rotl !a 5 + f + !e + k + Array.unsafe_get w i) land mask32 in
      e := !d;
      d := !c;
      c := rotl !b 30;
      b := !a;
      a := temp
    done;
    h.(0) <- (h.(0) + !a) land mask32;
    h.(1) <- (h.(1) + !b) land mask32;
    h.(2) <- (h.(2) + !c) land mask32;
    h.(3) <- (h.(3) + !d) land mask32;
    h.(4) <- (h.(4) + !e) land mask32
end)

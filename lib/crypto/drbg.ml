(* [counter] is the 16-byte big-endian counter block, bumped in place. *)
type t = { mutable key : Aes.key; counter : Bytes.t }

let create ~seed =
  let material = Sha256.digest ("nn-drbg-init" ^ seed) in
  { key = Aes.expand_key (Bytes_util.take 16 material);
    counter = Bytes.of_string (String.sub material 16 16)
  }

let bump t =
  let rec go i =
    if i >= 0 then begin
      let v = (Char.code (Bytes.get t.counter i) + 1) land 0xff in
      Bytes.set t.counter i (Char.chr v);
      if v = 0 then go (i - 1)
    end
  in
  go 15

(* The next keystream block, into the 16-byte [dst]. *)
let block_into t dst =
  bump t;
  Aes.encrypt_bytes t.key ~src:t.counter ~dst

let rekey t =
  let k = Bytes.create 16 in
  block_into t k;
  block_into t t.counter;
  t.key <- Aes.expand_key (Bytes.unsafe_to_string k)

let generate t n =
  let out = Bytes.create n and ks = Bytes.create 16 in
  let off = ref 0 in
  while !off < n do
    block_into t ks;
    Bytes.blit ks 0 out !off (min 16 (n - !off));
    off := !off + 16
  done;
  rekey t;
  Bytes.unsafe_to_string out

let reseed t entropy =
  let material = Sha256.digest (generate t 16 ^ entropy) in
  t.key <- Aes.expand_key (Bytes_util.take 16 material);
  Bytes.blit_string material 16 t.counter 0 16

let random_state t =
  let ints = Array.init 8 (fun _ -> Bytes_util.get_u32 (generate t 4) 0) in
  Random.State.make ints

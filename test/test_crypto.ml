(* Known-answer and property tests for the crypto substrate. *)

module B = Crypto.Bytes_util

let hex = B.of_hex
let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print gen f)

let gen_bytes n =
  QCheck2.Gen.(string_size ~gen:char (return n))

let gen_short = QCheck2.Gen.(string_size ~gen:char (int_bound 200))
let pr = Printf.sprintf "%S"

(* ---- bytes_util ---- *)

let test_hex () =
  Alcotest.(check string) "to" "00ff10" (B.to_hex "\x00\xff\x10");
  Alcotest.(check string) "of" "\x00\xff\x10" (B.of_hex "00ff10");
  Alcotest.(check string) "upper" "\xab\xcd" (B.of_hex "ABCD");
  Alcotest.check_raises "odd" (Invalid_argument "Bytes_util.of_hex: odd length")
    (fun () -> ignore (B.of_hex "abc"))

let test_xor () =
  Alcotest.(check string) "xor" "\x03\x00" (B.xor "\x01\x02" "\x02\x02");
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bytes_util.xor: length mismatch") (fun () ->
      ignore (B.xor "a" "ab"));
  Alcotest.(check string) "xor_prefix" "\x03\x00"
    (B.xor_prefix "\x01\x02" "\x02\x02\xff\xff");
  Alcotest.(check string) "xor_prefix = xor on equal lengths"
    (B.xor "\x01\x02" "\x02\x02")
    (B.xor_prefix "\x01\x02" "\x02\x02");
  Alcotest.check_raises "prefix too short"
    (Invalid_argument "Bytes_util.xor_prefix: second operand too short")
    (fun () -> ignore (B.xor_prefix "abc" "ab"))

let test_equal_ct () =
  Alcotest.(check bool) "equal" true (B.equal_ct "abc" "abc");
  Alcotest.(check bool) "differ" false (B.equal_ct "abc" "abd");
  Alcotest.(check bool) "length" false (B.equal_ct "ab" "abc")

let test_padding () =
  let p = B.pad_block "hello" in
  Alcotest.(check int) "multiple" 0 (String.length p mod 16);
  Alcotest.(check (option string)) "roundtrip" (Some "hello") (B.unpad_block p);
  Alcotest.(check (option string)) "empty" (Some "") (B.unpad_block (B.pad_block ""));
  Alcotest.(check (option string)) "malformed" None (B.unpad_block "\x00\x00\x01")

(* ---- AES ---- *)

let test_aes_fips_c1 () =
  let k = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  Alcotest.(check string) "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (B.to_hex (Crypto.Aes.encrypt_block k pt));
  Alcotest.(check string) "decrypt" (B.to_hex pt)
    (B.to_hex (Crypto.Aes.decrypt_block k (hex "69c4e0d86a7b0430d8cdb78070b4c55a")))

let test_aes_fips_b () =
  let k = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  Alcotest.(check string) "appendix B" "3925841d02dc09fbdc118597196a0b32"
    (B.to_hex (Crypto.Aes.encrypt_block k (hex "3243f6a8885a308d313198a2e0370734")))

let test_aes_bad_sizes () =
  let k = Crypto.Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes.encrypt_block: need 16 bytes") (fun () ->
      ignore (Crypto.Aes.encrypt_block k "short"));
  Alcotest.check_raises "short key"
    (Invalid_argument "Aes.expand_key: need 16 bytes") (fun () ->
      ignore (Crypto.Aes.expand_key "short"))

let aes_props =
  let gen = QCheck2.Gen.tup2 (gen_bytes 16) (gen_bytes 16) in
  let print (k, b) = pr k ^ "/" ^ pr b in
  [ prop "t-table matches reference" gen print (fun (key, block) ->
        let k = Crypto.Aes.expand_key key in
        Crypto.Aes.encrypt_block k block
        = Crypto.Aes.encrypt_block_reference k block);
    prop "decrypt inverts encrypt" gen print (fun (key, block) ->
        let k = Crypto.Aes.expand_key key in
        Crypto.Aes.decrypt_block k (Crypto.Aes.encrypt_block k block) = block);
    prop "encrypt_bytes = encrypt_block, aliased included" gen print
      (fun (key, block) ->
        let k = Crypto.Aes.expand_key key in
        let expected = Crypto.Aes.encrypt_block k block in
        let dst = Bytes.create 16 in
        Crypto.Aes.encrypt_bytes k ~src:(Bytes.of_string block) ~dst;
        (* In-place: src and dst are the same buffer. *)
        let buf = Bytes.of_string block in
        Crypto.Aes.encrypt_bytes k ~src:buf ~dst:buf;
        Bytes.to_string dst = expected && Bytes.to_string buf = expected)
  ]

let test_encrypt_bytes_sizes () =
  let k = Crypto.Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short src"
    (Invalid_argument "Aes.encrypt_bytes: src needs 16 bytes") (fun () ->
      Crypto.Aes.encrypt_bytes k ~src:(Bytes.create 8) ~dst:(Bytes.create 16));
  Alcotest.check_raises "short dst"
    (Invalid_argument "Aes.encrypt_bytes: dst needs 16 bytes") (fun () ->
      Crypto.Aes.encrypt_bytes k ~src:(Bytes.create 16) ~dst:(Bytes.create 8))

(* ---- modes ---- *)

let mode_props =
  let gen = QCheck2.Gen.tup3 (gen_bytes 16) (gen_bytes 16) gen_short in
  let print (k, n, m) = String.concat "/" [ pr k; pr n; pr m ] in
  [ prop "ctr involution" gen print (fun (key, nonce, msg) ->
        let k = Crypto.Aes.expand_key key in
        Crypto.Mode.ctr ~key:k ~nonce (Crypto.Mode.ctr ~key:k ~nonce msg) = msg);
    prop "cbc roundtrip" gen print (fun (key, iv, msg) ->
        let k = Crypto.Aes.expand_key key in
        Crypto.Mode.cbc_decrypt ~key:k ~iv (Crypto.Mode.cbc_encrypt ~key:k ~iv msg)
        = Some msg);
    prop "cbc tamper detected or changed" gen print (fun (key, iv, msg) ->
        QCheck2.assume (String.length msg > 0);
        let k = Crypto.Aes.expand_key key in
        let ct = Crypto.Mode.cbc_encrypt ~key:k ~iv msg in
        let ct' = Bytes.of_string ct in
        Bytes.set ct' 0 (Char.chr (Char.code (Bytes.get ct' 0) lxor 1));
        Crypto.Mode.cbc_decrypt ~key:k ~iv (Bytes.to_string ct') <> Some msg)
  ]

let test_ctr_keystream_position () =
  (* Equal prefixes encrypt equally; CTR is length-preserving. *)
  let k = Crypto.Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  let a = Crypto.Mode.ctr ~key:k ~nonce "hello world, this is a test!" in
  let b = Crypto.Mode.ctr ~key:k ~nonce "hello world, different tail." in
  Alcotest.(check string) "prefix" (String.sub a 0 12) (String.sub b 0 12);
  Alcotest.(check int) "length" 28 (String.length a)

let test_ecb () =
  let k = Crypto.Aes.expand_key (String.make 16 'k') in
  let msg = String.make 32 'm' in
  Alcotest.(check string) "roundtrip" msg
    (Crypto.Mode.ecb_decrypt ~key:k (Crypto.Mode.ecb_encrypt ~key:k msg));
  Alcotest.check_raises "not multiple"
    (Invalid_argument "Mode.ecb_encrypt: not a block multiple") (fun () ->
      ignore (Crypto.Mode.ecb_encrypt ~key:k "odd"))

(* ---- CMAC (RFC 4493) ---- *)

let cmac_key = hex "2b7e151628aed2a6abf7158809cf4f3c"

let rfc4493_msg =
  hex
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"

let test_cmac_vectors () =
  let k = Crypto.Cmac.key cmac_key in
  let check name msg expect =
    Alcotest.(check string) name expect (B.to_hex (Crypto.Cmac.mac k msg))
  in
  check "empty" "" "bb1d6929e95937287fa37d129b756746";
  check "16 bytes" (String.sub rfc4493_msg 0 16) "070a16b46b4d4144f79bdd9dd04a287c";
  check "40 bytes" (String.sub rfc4493_msg 0 40) "dfa66747de9ae63030ca32611497c827";
  check "64 bytes" rfc4493_msg "51f0bebf7e3b9d92fc49741779363cfe"

let test_cmac_parts () =
  let k = Crypto.Cmac.key cmac_key in
  Alcotest.(check string) "parts = concat"
    (B.to_hex (Crypto.Cmac.mac k "abcdef"))
    (B.to_hex (Crypto.Cmac.mac_parts k [ "ab"; "cd"; "ef" ]))

(* ---- SHA-256 / HMAC ---- *)

let test_sha256_vectors () =
  let check name msg expect =
    Alcotest.(check string) name expect (Crypto.Sha256.digest_hex msg)
  in
  check "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "empty" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "two blocks" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha256_streaming () =
  let whole = Crypto.Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Crypto.Sha256.init () in
  let ctx = Crypto.Sha256.feed ctx "the quick brown " in
  let ctx = Crypto.Sha256.feed ctx "fox jumps over" in
  let ctx = Crypto.Sha256.feed ctx " the lazy dog" in
  Alcotest.(check string) "chunked = whole" (B.to_hex whole)
    (B.to_hex (Crypto.Sha256.finalize ctx))

(* Lengths around the padding boundaries: 55 is the longest message whose
   padding fits its last block, 119 the longest two-block one. The
   expected digests are independent (Python hashlib). *)
let test_sha256_boundaries () =
  let msg n = String.init n (fun i -> Char.chr (i land 0xff)) in
  List.iter
    (fun (n, expect) ->
      let m = msg n in
      let name what = Printf.sprintf "%s, %d bytes" what n in
      Alcotest.(check string) (name "one-shot") expect (Crypto.Sha256.digest_hex m);
      for cut = 0 to n do
        let ctx = Crypto.Sha256.feed (Crypto.Sha256.init ()) (String.sub m 0 cut) in
        let ctx = Crypto.Sha256.feed ctx (String.sub m cut (n - cut)) in
        Alcotest.(check string) (name (Printf.sprintf "streaming cut at %d" cut))
          expect (B.to_hex (Crypto.Sha256.finalize ctx))
      done;
      if n >= 64 then
        Alcotest.(check string) (name "from midstate") expect
          (B.to_hex
             (Crypto.Sha256.digest_from
                (Crypto.Sha256.midstate (String.sub m 0 64))
                (String.sub m 64 (n - 64)))))
    [ (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c")
    ]

let test_sha256_midstate_reuse () =
  let m = Crypto.Sha256.midstate (String.make 64 'k') in
  let a = Crypto.Sha256.digest_from m "first" in
  ignore (Crypto.Sha256.digest_from m (String.make 200 'x'));
  Alcotest.(check string) "midstate not mutated" (B.to_hex a)
    (B.to_hex (Crypto.Sha256.digest_from m "first"));
  Alcotest.check_raises "short block"
    (Invalid_argument "Sha256.midstate: block must be 64 bytes") (fun () ->
      ignore (Crypto.Sha256.midstate "short"))

let sha_props =
  [ prop "chunking irrelevant"
      QCheck2.Gen.(tup2 gen_short (int_bound 50))
      (fun (s, i) -> pr s ^ "@" ^ string_of_int i)
      (fun (s, i) ->
        let i = min i (String.length s) in
        let a = String.sub s 0 i and b = String.sub s i (String.length s - i) in
        Crypto.Sha256.finalize
          (Crypto.Sha256.feed (Crypto.Sha256.feed (Crypto.Sha256.init ()) a) b)
        = Crypto.Sha256.digest s)
  ]

let test_hmac_vectors () =
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Crypto.Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_large_key () =
  (* RFC 4231 cases 6 and 7: a 131-byte key is hashed before use. *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Crypto.Hmac.mac_hex ~key
       "Test Using Larger Than Block-Size Key - Hash Key First");
  Alcotest.(check string) "rfc4231 case 7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Crypto.Hmac.mac_hex ~key
       "This is a test using a larger than block-size key and a larger than \
        block-size data. The key needs to be hashed before being used by the \
        HMAC algorithm.")

(* The RFC 2104 definition over plain one-shot digests. *)
let hmac_reference ~key msg =
  let key = if String.length key > 64 then Crypto.Sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad c = B.xor key (String.make 64 c) in
  Crypto.Sha256.digest (pad '\x5c' ^ Crypto.Sha256.digest (pad '\x36' ^ msg))

let hmac_props =
  [ prop "mac_with (prepare k) = mac ~key:k = RFC 2104, keys of 0-200 bytes"
      QCheck2.Gen.(tup2 gen_short gen_short)
      (fun (k, m) -> pr k ^ "/" ^ pr m)
      (fun (key, msg) ->
        let prepared = Crypto.Hmac.prepare key in
        let a = Crypto.Hmac.mac_with prepared msg in
        a = Crypto.Hmac.mac ~key msg
        && a = hmac_reference ~key msg
        (* a prepared key is reusable *)
        && Crypto.Hmac.mac_with prepared msg = a)
  ]

let test_hmac_derive () =
  let a = Crypto.Hmac.derive ~secret:"s" ~label:"x" ~length:40 in
  let b = Crypto.Hmac.derive ~secret:"s" ~label:"x" ~length:40 in
  let c = Crypto.Hmac.derive ~secret:"s" ~label:"y" ~length:40 in
  Alcotest.(check string) "deterministic" a b;
  Alcotest.(check bool) "label separates" true (a <> c);
  Alcotest.(check int) "length" 40 (String.length a)

(* ---- DRBG ---- *)

let test_drbg () =
  let d1 = Crypto.Drbg.create ~seed:"seed" in
  let d2 = Crypto.Drbg.create ~seed:"seed" in
  let d3 = Crypto.Drbg.create ~seed:"other" in
  let a = Crypto.Drbg.generate d1 33 in
  Alcotest.(check string) "deterministic" a (Crypto.Drbg.generate d2 33);
  Alcotest.(check bool) "seed separates" true (a <> Crypto.Drbg.generate d3 33);
  Alcotest.(check bool) "advances" true (a <> Crypto.Drbg.generate d1 33);
  Alcotest.(check int) "length" 7 (String.length (Crypto.Drbg.generate d1 7));
  Crypto.Drbg.reseed d1 "entropy";
  Crypto.Drbg.reseed d2 "different";
  Alcotest.(check bool) "reseed separates" true
    (Crypto.Drbg.generate d1 16 <> Crypto.Drbg.generate d2 16)

let test_drbg_golden () =
  (* Pins the output stream byte for byte: three successive generate
     calls of 16, 32 and 5 bytes from a fixed seed. *)
  let d = Crypto.Drbg.create ~seed:"drbg-golden" in
  let a = Crypto.Drbg.generate d 16 in
  let b = Crypto.Drbg.generate d 32 in
  let c = Crypto.Drbg.generate d 5 in
  Alcotest.(check string) "generate 16"
    "5520aadaf09b23ac8e2be6e23447c596" (B.to_hex a);
  Alcotest.(check string) "generate 32"
    "44d88a283ea560df257916a7dd1ac2ca7bd6aa9a220f7059fff19d882411cad5"
    (B.to_hex b);
  Alcotest.(check string) "generate 5" "6a2f15216a" (B.to_hex c)

(* ---- RSA ---- *)

let fixed_key = lazy (Scenario.Keyring.onetime 0)
let fixed_key_1024 = lazy (Scenario.Keyring.e2e 0)

let drbg_rng seed =
  let d = Crypto.Drbg.create ~seed in
  fun n -> Crypto.Drbg.generate d n

let test_rsa_roundtrip () =
  let key = Lazy.force fixed_key in
  let rng = drbg_rng "rsa-test" in
  let msg = "a 32-byte secret payload here!!!" in
  let ct = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng msg in
  Alcotest.(check int) "ct length" 64 (String.length ct);
  Alcotest.(check (option string)) "decrypt" (Some msg) (Crypto.Rsa.decrypt key ct)

let test_rsa_randomized_padding () =
  let key = Lazy.force fixed_key in
  let rng = drbg_rng "rsa-pad" in
  let a = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng "msg" in
  let b = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng "msg" in
  Alcotest.(check bool) "randomized" true (a <> b)

let test_rsa_limits () =
  let key = Lazy.force fixed_key in
  let rng = drbg_rng "rsa-lim" in
  Alcotest.(check int) "max payload" 53 (Crypto.Rsa.max_payload key.Crypto.Rsa.public);
  let max_msg = String.make 53 'x' in
  Alcotest.(check (option string)) "at limit" (Some max_msg)
    (Crypto.Rsa.decrypt key (Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng max_msg));
  Alcotest.check_raises "too long" (Invalid_argument "Rsa.encrypt: message too long")
    (fun () ->
      ignore (Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng (String.make 54 'x')))

let test_rsa_bad_ciphertext () =
  let key = Lazy.force fixed_key in
  Alcotest.(check (option string)) "wrong length" None
    (Crypto.Rsa.decrypt key "short");
  Alcotest.(check (option string)) "garbage" None
    (Crypto.Rsa.decrypt key (String.make 64 '\x7f'))

let test_rsa_sign_verify () =
  let key = Lazy.force fixed_key_1024 in
  let s = Crypto.Rsa.sign key "attested message" in
  Alcotest.(check bool) "verify" true
    (Crypto.Rsa.verify key.Crypto.Rsa.public ~msg:"attested message" ~signature:s);
  Alcotest.(check bool) "wrong msg" false
    (Crypto.Rsa.verify key.Crypto.Rsa.public ~msg:"другое" ~signature:s);
  let s' = Bytes.of_string s in
  Bytes.set s' 10 (Char.chr (Char.code (Bytes.get s' 10) lxor 1));
  Alcotest.(check bool) "tampered" false
    (Crypto.Rsa.verify key.Crypto.Rsa.public ~msg:"attested message"
       ~signature:(Bytes.to_string s'))

let test_rsa_public_codec () =
  let key = Lazy.force fixed_key in
  let blob = Crypto.Rsa.public_to_string key.Crypto.Rsa.public in
  (match Crypto.Rsa.public_of_string blob with
   | Some pub ->
     Alcotest.(check bool) "n" true (Bignum.Nat.equal pub.Crypto.Rsa.n key.Crypto.Rsa.public.Crypto.Rsa.n);
     Alcotest.(check int) "bits" 512 pub.Crypto.Rsa.bits
   | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "truncated" true
    (Crypto.Rsa.public_of_string (String.sub blob 0 6) = None);
  Alcotest.(check bool) "empty" true (Crypto.Rsa.public_of_string "" = None)

let test_rsa_crt_agrees () =
  let key = Lazy.force fixed_key in
  let m = Bignum.Nat.of_bytes_be "some message block" in
  let c = Crypto.Rsa.encrypt_raw key.Crypto.Rsa.public m in
  let plain = Crypto.Rsa.decrypt_raw key c in
  Alcotest.(check bool) "roundtrip" true (Bignum.Nat.equal m plain);
  (* and against plain exponentiation with d *)
  let direct = Bignum.Modular.pow_mod c key.Crypto.Rsa.d key.Crypto.Rsa.public.Crypto.Rsa.n in
  Alcotest.(check bool) "crt = direct" true (Bignum.Nat.equal direct plain)

let test_rsa_e65537 () =
  let key = Crypto.Rsa.generate ~e:65537 ~bits:512 (Random.State.make [| 42 |]) in
  let rng = drbg_rng "rsa-f4" in
  let msg = "hello f4" in
  Alcotest.(check (option string)) "roundtrip" (Some msg)
    (Crypto.Rsa.decrypt key (Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng msg))

(* ---- Seal ---- *)

let test_seal_roundtrip () =
  let key = Lazy.force fixed_key_1024 in
  let rng = drbg_rng "seal" in
  let blob = Crypto.Seal.seal ~rng ~pub:key.Crypto.Rsa.public "top secret" in
  Alcotest.(check (option string)) "unseal" (Some "top secret")
    (Option.map snd (Crypto.Seal.unseal ~priv:key blob))

let test_seal_tamper () =
  let key = Lazy.force fixed_key_1024 in
  let rng = drbg_rng "seal2" in
  let blob = Crypto.Seal.seal ~rng ~pub:key.Crypto.Rsa.public "top secret" in
  let b = Bytes.of_string blob in
  Bytes.set b (Bytes.length b - 1) '\x00';
  Alcotest.(check (option string)) "tampered tag" None
    (Option.map snd (Crypto.Seal.unseal ~priv:key (Bytes.to_string b)))

let test_seal_sym () =
  let rng = drbg_rng "seal3" in
  let secret = rng 32 in
  let blob = Crypto.Seal.seal_sym ~rng ~secret "payload" in
  Alcotest.(check (option string)) "roundtrip" (Some "payload")
    (Crypto.Seal.unseal_sym ~secret blob);
  Alcotest.(check (option string)) "wrong secret" None
    (Crypto.Seal.unseal_sym ~secret:(rng 32) blob)

let seal_keys_props =
  let gen = QCheck2.Gen.(tup3 (gen_bytes 32) gen_short (int_bound 1_000_000)) in
  let print (secret, m, i) =
    String.concat "/" [ pr secret; pr m; string_of_int i ]
  in
  [ prop "seal_keys = seal_sym byte for byte; open_keys round-trips and rejects"
      gen print (fun (secret, msg, i) ->
        let seed = "seal-keys-" ^ string_of_int i in
        let keys = Crypto.Seal.keys secret in
        let blob = Crypto.Seal.seal_keys ~rng:(drbg_rng seed) keys msg in
        let flipped j =
          let b = Bytes.of_string blob in
          Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
          Crypto.Seal.open_keys keys (Bytes.to_string b)
        in
        let other = Crypto.Seal.keys (Crypto.Sha256.digest secret) in
        blob = Crypto.Seal.seal_sym ~rng:(drbg_rng seed) ~secret msg
        && Crypto.Seal.open_keys keys blob = Some msg
        && Crypto.Seal.unseal_sym ~secret blob = Some msg
        && List.for_all
             (fun j -> flipped j = None)
             (List.init (String.length blob) Fun.id)
        && Crypto.Seal.open_keys other blob = None
        && Crypto.Seal.open_keys keys (String.sub blob 0 31) = None)
  ]

(* unseal hands back the envelope's secret with its body, so the receiver
   can answer under the same secret. *)
let test_seal_recover_secret () =
  let key = Lazy.force fixed_key_1024 in
  let rng = drbg_rng "seal4" in
  let pub = key.Crypto.Rsa.public in
  (match Crypto.Seal.unseal ~priv:key (Crypto.Seal.seal ~rng ~pub "x") with
   | Some (s, body) ->
     Alcotest.(check int) "32 bytes" 32 (String.length s);
     Alcotest.(check string) "body" "x" body
   | None -> Alcotest.fail "no secret");
  let secret = rng 32 in
  Alcotest.(check bool) "caller-chosen secret" true
    (Crypto.Seal.unseal ~priv:key
       (Crypto.Seal.seal_with_secret ~rng ~pub ~secret "query")
    = Some (secret, "query"));
  Alcotest.(check bool) "not an envelope" true
    (Crypto.Seal.unseal ~priv:key "Xjunk" = None)

let () =
  Alcotest.run "crypto"
    [ ( "bytes-util",
        [ Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "equal_ct" `Quick test_equal_ct;
          Alcotest.test_case "padding" `Quick test_padding
        ] );
      ( "aes",
        [ Alcotest.test_case "FIPS-197 C.1" `Quick test_aes_fips_c1;
          Alcotest.test_case "FIPS-197 appendix B" `Quick test_aes_fips_b;
          Alcotest.test_case "bad sizes" `Quick test_aes_bad_sizes;
          Alcotest.test_case "encrypt_bytes sizes" `Quick
            test_encrypt_bytes_sizes
        ]
        @ aes_props );
      ( "modes",
        [ Alcotest.test_case "ctr keystream position" `Quick
            test_ctr_keystream_position;
          Alcotest.test_case "ecb" `Quick test_ecb
        ]
        @ mode_props );
      ( "cmac",
        [ Alcotest.test_case "RFC 4493 vectors" `Quick test_cmac_vectors;
          Alcotest.test_case "mac_parts" `Quick test_cmac_parts
        ] );
      ( "sha256-hmac",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "sha256 padding boundaries" `Quick
            test_sha256_boundaries;
          Alcotest.test_case "sha256 midstate reuse" `Quick
            test_sha256_midstate_reuse;
          Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "hmac 131-byte key" `Quick test_hmac_large_key;
          Alcotest.test_case "hmac derive" `Quick test_hmac_derive
        ]
        @ sha_props @ hmac_props );
      ( "drbg",
        [ Alcotest.test_case "determinism" `Quick test_drbg;
          Alcotest.test_case "golden stream" `Quick test_drbg_golden
        ] );
      ( "rsa",
        [ Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "randomized padding" `Quick
            test_rsa_randomized_padding;
          Alcotest.test_case "limits" `Quick test_rsa_limits;
          Alcotest.test_case "bad ciphertext" `Quick test_rsa_bad_ciphertext;
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "public codec" `Quick test_rsa_public_codec;
          Alcotest.test_case "crt agrees" `Quick test_rsa_crt_agrees;
          Alcotest.test_case "e=65537" `Slow test_rsa_e65537
        ] );
      ( "seal",
        [ Alcotest.test_case "roundtrip" `Quick test_seal_roundtrip;
          Alcotest.test_case "tamper" `Quick test_seal_tamper;
          Alcotest.test_case "symmetric" `Quick test_seal_sym;
          Alcotest.test_case "recover secret" `Quick test_seal_recover_secret
        ]
        @ seal_keys_props )
    ]

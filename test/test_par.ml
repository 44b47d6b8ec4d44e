(* Parallel-equivalence suite for the multicore subsystem: lib/par's
   barrier round and the shared state that tasks on other domains touch.

   The central claim under test: running work through a domain pool
   changes wall-clock time and nothing else. Keytab contents and obs
   counter totals must be identical at pool sizes 1, 2 and 4 — pool
   size 1 *is* the sequential implementation. Alongside the equivalence
   properties live crypto reentrancy KATs (the shared fixtures, session
   Seal keys and prepared HMAC keys among them, really are safe to
   share) and regression tests for the sharing hazards the reentrancy
   pass fixed: the Lazy decrypt round keys in Aes and the per-session
   scratch buffers in Datapath. *)

let prop ?(count = 50) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* Pools are reused across test cases to amortize domain spawn; tests in
   a binary run sequentially, so the single-submitter contract holds. *)
let pool1 = Par.create ~size:1 ()
let pool2 = Par.create ~size:2 ()
let pool4 = Par.create ~size:4 ()
let () = at_exit (fun () -> Par.shutdown pool2; Par.shutdown pool4)
let pools () = [ (1, None); (2, Some pool2); (4, Some pool4) ]

let () =
  Printf.printf "test_par: recommended domains=%d\n%!" (Par.recommended ())

let hex = Crypto.Bytes_util.of_hex

(* ---- the pool itself ---- *)

let test_round_by_index () =
  List.iter
    (fun (label, p) ->
      let out = Array.make 1000 (-1) in
      Par.round p ~n:1000 ~f:(fun i -> out.(i) <- i * i);
      Alcotest.(check (array int))
        (Printf.sprintf "pool=%d" label)
        (Array.init 1000 (fun i -> i * i))
        out)
    [ (1, pool1); (2, pool2); (4, pool4) ]

let test_round_empty_and_small () =
  Par.round pool4 ~n:0 ~f:(fun _ -> Alcotest.fail "n = 0 ran a task");
  Alcotest.check_raises "negative n"
    (Invalid_argument "Par.round: n must be >= 0") (fun () ->
      Par.round pool4 ~n:(-1) ~f:(fun _ -> ()));
  let hit = ref (-1) in
  Par.round pool4 ~n:1 ~f:(fun i -> hit := i);
  Alcotest.(check int) "singleton runs index 0" 0 !hit

let test_round_exception () =
  (* Tasks 2 and 5 both raise: the round still drains every task, and
     the lowest index is the one re-raised, whatever domain hit its
     failure first. *)
  List.iter
    (fun p ->
      let ran = Array.make 8 false in
      (match
         Par.round p ~n:8 ~f:(fun i ->
             ran.(i) <- true;
             if i = 2 || i = 5 then failwith (string_of_int i))
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        Alcotest.(check string) "lowest index wins" "2" msg);
      Alcotest.(check (array bool)) "every task ran" (Array.make 8 true) ran)
    [ pool1; pool2; pool4 ];
  (* The pool survives a failed round. *)
  let out = Array.make 100 0 in
  Par.round pool4 ~n:100 ~f:(fun i -> out.(i) <- i + 1);
  Alcotest.(check (array int))
    "pool usable after failure" (Array.init 100 (fun i -> i + 1)) out

let test_with_pool () =
  let r =
    Par.with_pool ~size:3 (fun p ->
        let ran = Atomic.make 0 in
        Par.round p ~n:5 ~f:(fun _ -> Atomic.incr ran);
        Atomic.get ran)
  in
  Alcotest.(check int) "result of f" 5 r;
  Alcotest.check_raises "size must be positive"
    (Invalid_argument "Par.create: size must be >= 1") (fun () ->
      ignore (Par.with_pool ~size:0 (fun _ -> ())))

(* ---- equivalence: sharded keytab ---- *)

let grant_of i : Core.Keytab.grant =
  { epoch = i mod 5;
    nonce = Printf.sprintf "nonce-%02d" (i mod 89);
    key =
      String.sub
        (Crypto.Sha256.digest (Printf.sprintf "ks-%d" i))
        0 Core.Protocol.key_len;
    obtained_at = Int64.of_int i
  }

let neutralizer_of i = Net.Ipaddr.of_string (Printf.sprintf "10.9.%d.1" (i mod 40))

let keytab_digest tab =
  let entries =
    List.map
      (fun (addr, (g : Core.Keytab.grant)) ->
        Printf.sprintf "%s|%d|%s|%s|%Ld" (Net.Ipaddr.to_string addr) g.epoch
          g.nonce
          (Crypto.Bytes_util.to_hex g.key)
          g.obtained_at)
      (Core.Keytab.grants tab)
  in
  Crypto.Sha256.digest_hex (String.concat ";" (List.sort compare entries))

let keytab_parallel_equivalence =
  prop ~count:30 ~name:"keytab: parallel puts digest-equal to sequential"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 120)
    (fun n ->
      (* One neutralizer per index: concurrent puts to the SAME key are
         last-writer-wins (inherently schedule-dependent), so the
         deterministic fan-out contract is over distinct keys. *)
      let distinct i =
        Net.Ipaddr.of_string (Printf.sprintf "10.9.%d.%d" (i / 200) (2 + (i mod 200)))
      in
      let digest_with pool =
        let tab = Core.Keytab.create () in
        let put i =
          let g = grant_of i in
          Core.Keytab.put tab ~neutralizer:(distinct i) g;
          ignore (Core.Keytab.session tab g)
        in
        (match pool with
        | None -> for i = 0 to n - 1 do put i done
        | Some p -> Par.round p ~n ~f:put);
        keytab_digest tab
      in
      let reference = digest_with None in
      List.for_all (fun (_, pool) -> digest_with pool = reference) (pools ()))

let test_keytab_session_memo_shared () =
  (* Concurrent session lookups for one grant all get the one memoized
     session — the shard mutex makes exactly one creator win. *)
  let tab = Core.Keytab.create () in
  let g = grant_of 7 in
  let sessions = Array.make 64 None in
  Par.round pool4 ~n:64 ~f:(fun i ->
      sessions.(i) <- Some (Core.Keytab.session tab g));
  let sessions = Array.map Option.get sessions in
  Alcotest.(check int) "one session memoized" 1 (Core.Keytab.session_count tab);
  Alcotest.(check bool)
    "all physically equal" true
    (Array.for_all (fun s -> s == sessions.(0)) sessions)

(* ---- equivalence: obs counters ---- *)

let obs_counter_equivalence =
  prop ~count:20 ~name:"obs: counter totals exact under 4-domain bumps"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 5000)
    (fun n ->
      let c = Obs.Counter.create () in
      let per = (n + 7) / 8 in
      Par.round pool4 ~n:8 ~f:(fun k ->
          for _ = k * per to min n ((k + 1) * per) - 1 do
            Obs.Counter.inc c
          done);
      Obs.Counter.value c = n)

let test_gauge_concurrent_add () =
  let g = Obs.Gauge.create () in
  Par.round pool4 ~n:40 ~f:(fun _ ->
      for _ = 1 to 100 do
        Obs.Gauge.add g 1.0
      done);
  Alcotest.(check (float 1e-6)) "CAS add loses nothing" 4000.0 (Obs.Gauge.value g)

(* ---- crypto reentrancy: KATs from 4 domains at once ---- *)

let aes_kat () =
  let key = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  let ct = Crypto.Aes.encrypt_block key pt in
  ct = hex "69c4e0d86a7b0430d8cdb78070b4c55a"
  && Crypto.Aes.decrypt_block key ct = pt
  && Crypto.Aes.encrypt_block_reference key pt = ct

let cmac_kat () =
  let k = Crypto.Cmac.key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  Crypto.Cmac.mac k "" = hex "bb1d6929e95937287fa37d129b756746"
  && Crypto.Cmac.mac k (hex "6bc1bee22e409f96e93d7e117393172a")
     = hex "070a16b46b4d4144f79bdd9dd04a287c"

let sha256_kat () =
  Crypto.Sha256.digest_hex "abc"
  = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
  && Crypto.Sha256.digest_hex ""
     = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let run_from_domains ~domains ~iters f =
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to iters do
              if not (f ()) then ok := false
            done;
            !ok))
  in
  List.for_all Domain.join spawned

(* One Seal.keys and one prepared Hmac.key shared by every domain: each
   result must be the bytes the sequential run produced. *)
let shared_seal_keys = Crypto.Seal.keys (String.make 32 's')
let shared_hmac_key = Crypto.Hmac.prepare "par-shared-hmac-key"
let shared_msgs = Array.init 16 (fun i -> String.make (i * 13) (Char.chr (65 + i)))

let shared_results () =
  Array.mapi
    (fun i m ->
      let rng n = String.make n (Char.chr i) in
      let blob = Crypto.Seal.seal_keys ~rng shared_seal_keys m in
      (blob, Crypto.Seal.open_keys shared_seal_keys blob,
       Crypto.Hmac.mac_with shared_hmac_key m))
    shared_msgs

let test_crypto_reentrant_kats () =
  let expected = shared_results () in
  Alcotest.(check bool)
    "Seal.keys + Hmac.key shared by 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 (fun () -> shared_results () = expected));
  Alcotest.(check bool)
    "sequential bytes open" true
    (Array.for_all2 (fun m (_, opened, _) -> opened = Some m) shared_msgs expected);
  Alcotest.(check bool)
    "AES FIPS-197 from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 aes_kat);
  Alcotest.(check bool)
    "CMAC RFC 4493 from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 cmac_kat);
  Alcotest.(check bool)
    "SHA-256 RFC 6234 vectors from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 sha256_kat)

(* ---- regressions for the specific hazards the reentrancy pass fixed ---- *)

let test_aes_decrypt_shared_key () =
  (* Before the fix the decrypt round keys were a [Lazy.t]; two domains
     forcing it together could raise (Lazy is not domain-safe). Each
     iteration shares a FRESH key across 4 domains so the first force
     always races. *)
  for i = 0 to 24 do
    let key =
      Crypto.Aes.expand_key
        (String.sub (Crypto.Sha256.digest (Printf.sprintf "k%d" i)) 0 16)
    in
    let pt = String.sub (Crypto.Sha256.digest (Printf.sprintf "p%d" i)) 0 16 in
    let ct = Crypto.Aes.encrypt_block key pt in
    if
      not
        (run_from_domains ~domains:4 ~iters:1 (fun () ->
             Crypto.Aes.decrypt_block key ct = pt))
    then Alcotest.failf "shared-key decrypt diverged at iteration %d" i
  done

let test_datapath_session_shared () =
  (* Before the fix a session carried reused tag scratch buffers; two
     domains tagging at once could cross-talk and produce a bad tag.
     Shared session, disjoint addresses per domain, every round trip
     must agree with the stateless reference. *)
  let drbg = Crypto.Drbg.create ~seed:"par-session" in
  let rng n = Crypto.Drbg.generate drbg n in
  let ks = rng Core.Protocol.key_len in
  let nonce = rng Core.Protocol.nonce_len in
  let epoch = 2 in
  let s = Core.Datapath.make_session ~ks ~epoch ~nonce in
  let addr_of d i = Net.Ipaddr.of_string (Printf.sprintf "10.%d.3.%d" (20 + d) (2 + i)) in
  let reference d i =
    let a = addr_of d i in
    (a, Core.Datapath.blind ~ks ~epoch ~nonce a)
  in
  let refs = Array.init 4 (fun d -> Array.init 100 (reference d)) in
  let did = Atomic.make 0 in
  let ok =
    run_from_domains ~domains:4 ~iters:1 (fun () ->
        let d = Atomic.fetch_and_add did 1 in
        Array.for_all
          (fun (a, (enc_ref, tag_ref)) ->
            let enc, tag = Core.Datapath.blind_session s a in
            enc = enc_ref && tag = tag_ref
            && Core.Datapath.unblind_session s ~enc_addr:enc ~tag
               = Some a)
          refs.(d))
  in
  Alcotest.(check bool) "shared session matches stateless reference" true ok

(* ---- keytab stress: sharded vs sequential model ---- *)

type keytab_op =
  | Put of int
  | Invalidate of int
  | Drop of int * int  (* now, max_age *)

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Put i) (int_bound 200));
        (2, map (fun i -> Invalidate i) (int_bound 200));
        (1, map2 (fun now age -> Drop (now, age)) (int_bound 250) (int_bound 60))
      ])

let print_op = function
  | Put i -> Printf.sprintf "Put %d" i
  | Invalidate i -> Printf.sprintf "Invalidate %d" i
  | Drop (n, a) -> Printf.sprintf "Drop(%d,%d)" n a

(* Sequential reference model: assoc lists, the spec made executable. *)
module Model = struct
  type t = {
    mutable cur : (string * Core.Keytab.grant) list;  (* key: addr octets *)
    mutable by_nonce : (string * Core.Keytab.grant) list;
  }

  let create () = { cur = []; by_nonce = [] }
  let okey a = Net.Ipaddr.to_octets a

  let put m ~neutralizer g =
    m.cur <- (okey neutralizer, g) :: List.remove_assoc (okey neutralizer) m.cur;
    let nk = okey neutralizer ^ g.Core.Keytab.nonce in
    m.by_nonce <- (nk, g) :: List.remove_assoc nk m.by_nonce

  let current m ~neutralizer = List.assoc_opt (okey neutralizer) m.cur

  let find_nonce m ~neutralizer ~nonce =
    List.assoc_opt (okey neutralizer ^ nonce) m.by_nonce

  let invalidate m ~neutralizer =
    m.cur <- List.remove_assoc (okey neutralizer) m.cur

  let drop m ~now ~max_age =
    let live (_, (g : Core.Keytab.grant)) =
      Int64.compare (Int64.sub now g.obtained_at) max_age <= 0
    in
    let dropped = List.length (List.filter (fun e -> not (live e)) m.by_nonce) in
    m.cur <- List.filter live m.cur;
    m.by_nonce <- List.filter live m.by_nonce;
    dropped
end

let keytab_model_stress =
  prop ~count:40 ~name:"keytab: sharded table matches sequential model"
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_bound 80) gen_op)
    (fun ops ->
      let tab = Core.Keytab.create () in
      let m = Model.create () in
      let expected_evictions = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Put i ->
            let g = grant_of i in
            Core.Keytab.put tab ~neutralizer:(neutralizer_of i) g;
            Model.put m ~neutralizer:(neutralizer_of i) g
          | Invalidate i ->
            Core.Keytab.invalidate tab ~neutralizer:(neutralizer_of i);
            Model.invalidate m ~neutralizer:(neutralizer_of i)
          | Drop (now, age) ->
            let now = Int64.of_int now and max_age = Int64.of_int age in
            Core.Keytab.drop_older_than tab ~now ~max_age;
            expected_evictions := !expected_evictions + Model.drop m ~now ~max_age)
        ops;
      (* Every observable agrees with the model at every probe point. *)
      let agree_at i =
        let neutralizer = neutralizer_of i in
        Core.Keytab.current tab ~neutralizer = Model.current m ~neutralizer
        && List.for_all
             (fun j ->
               let nonce = (grant_of j).Core.Keytab.nonce in
               Core.Keytab.find_nonce tab ~neutralizer ~nonce
               = Model.find_nonce m ~neutralizer ~nonce)
             [ i; i + 1; i + 89 ]
      in
      List.for_all agree_at (List.init 40 (fun i -> i))
      && Core.Keytab.evictions tab = !expected_evictions)

let test_keytab_eviction_exactly_once () =
  let tab = Core.Keytab.create () in
  for i = 0 to 4 do
    let g = { (grant_of i) with obtained_at = 0L } in
    Core.Keytab.put tab ~neutralizer:(neutralizer_of i) g;
    ignore (Core.Keytab.session tab g)
  done;
  Alcotest.(check int) "sessions materialized" 5 (Core.Keytab.session_count tab);
  Core.Keytab.drop_older_than tab ~now:10L ~max_age:5L;
  Alcotest.(check int) "each stale grant evicted once" 5 (Core.Keytab.evictions tab);
  Alcotest.(check int) "sessions evicted with grants" 0
    (Core.Keytab.session_count tab);
  Alcotest.(check int) "no grants left" 0 (List.length (Core.Keytab.grants tab));
  (* Idempotent: a second pass finds nothing stale. *)
  Core.Keytab.drop_older_than tab ~now:10L ~max_age:5L;
  Alcotest.(check int) "double drop evicts nothing more" 5
    (Core.Keytab.evictions tab)

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "round results by index" `Quick
            test_round_by_index;
          Alcotest.test_case "empty and small" `Quick
            test_round_empty_and_small;
          Alcotest.test_case "exception propagation" `Quick
            test_round_exception;
          Alcotest.test_case "with_pool" `Quick test_with_pool
        ] );
      ( "equivalence",
        [ keytab_parallel_equivalence;
          obs_counter_equivalence;
          Alcotest.test_case "session memo shared" `Quick
            test_keytab_session_memo_shared;
          Alcotest.test_case "gauge concurrent add" `Quick
            test_gauge_concurrent_add
        ] );
      ( "reentrancy",
        [ Alcotest.test_case "crypto KATs from 4 domains" `Quick
            test_crypto_reentrant_kats;
          Alcotest.test_case "aes: shared-key decrypt (regression)" `Quick
            test_aes_decrypt_shared_key;
          Alcotest.test_case "datapath: shared session (regression)" `Quick
            test_datapath_session_shared
        ] );
      ( "keytab",
        [ keytab_model_stress;
          Alcotest.test_case "eviction exactly once" `Quick
            test_keytab_eviction_exactly_once
        ] )
    ]

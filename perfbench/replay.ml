(* Per-call host cost of single layer operations, replayed in isolation
   on inputs shaped like the workload's (traced runs only). Each replay
   calls the layer's public function in a loop for a fixed host-time
   budget and returns nanoseconds per call. *)

let budget_s = 0.05

let ns_per_call ?(batch = 64) f =
  (* warm the caches and any lazy tables first *)
  for _ = 1 to batch do
    f ()
  done;
  let calls = ref 0 in
  let t0 = Util.now () in
  let deadline = t0 +. budget_s in
  while Util.now () < deadline do
    for _ = 1 to batch do
      f ()
    done;
    calls := !calls + batch
  done;
  1e9 *. (Util.now () -. t0) /. float_of_int !calls

(* Same, but [f] returns its own timed share so untimed preparation
   (refilling a queue, draining an engine) stays out of the figure. *)
let ns_per_call_timed f =
  let calls = ref 0 and spent = ref 0.0 in
  let t0 = Util.now () in
  while Util.now () -. t0 < budget_s || !calls = 0 do
    let n, s = f () in
    calls := !calls + n;
    spent := !spent +. s
  done;
  1e9 *. !spent /. float_of_int !calls

let noop () = ()

(* Engine dispatch: no-op events at the workload's shard count and
   queue depth, including the cost of scheduling them. *)
let dispatch_ns ~shards ~depth () =
  let depth = max 1 depth in
  let engine =
    if shards = 1 then Net.Engine.create ~obs:(Obs.Registry.create ()) ()
    else
      Net.Engine.create ~obs:(Obs.Registry.create ()) ~shards
        ~lookahead:1_000_000L ()
  in
  ns_per_call_timed (fun () ->
      let t0 = Util.now () in
      let base = Net.Engine.now engine in
      for i = 1 to depth do
        let at = Int64.add base (Int64.of_int (1000 * i)) in
        ignore (Net.Engine.post engine ~shard:(i mod shards) ~at noop)
      done;
      Net.Engine.run engine;
      (depth, Util.now () -. t0))

(* Link.send on a standalone link with the workload's bandwidth and the
   default queue; the engine is drained between bursts, outside the
   timer, so every timed send is accepted. *)
let link_send_ns ~bandwidth_bps ~size =
  let engine = Net.Engine.create ~obs:(Obs.Registry.create ()) () in
  let link =
    Net.Link.create engine ~bandwidth_bps ~latency:1_000_000L
      ~deliver:(fun _ -> ())
      ()
  in
  let src = Net.Ipaddr.of_string "10.9.0.1"
  and dst = Net.Ipaddr.of_string "10.9.0.2" in
  let p = Net.Packet.make ~src ~dst (String.make (max 0 (size - 28)) 'x') in
  let burst = max 1 (min 64 (64 * 1024 / max 1 size)) in
  ns_per_call_timed (fun () ->
      let t0 = Util.now () in
      for _ = 1 to burst do
        match Net.Link.send link p with
        | Net.Link.Sent -> ()
        | Net.Link.Dropped _ -> Util.check false "link replay dropped a packet"
      done;
      let s = Util.now () -. t0 in
      Net.Engine.run engine;
      (burst, s))

(* Routing.next_hop over the hop-by-hop lookups of the given paths. *)
let next_hop_ns topo (lookups : (Net.Topology.node_id * Net.Ipaddr.t) array) =
  let r = Net.Routing.compute topo in
  let n = Array.length lookups in
  let i = ref 0 in
  ns_per_call (fun () ->
      let from, dst = lookups.(!i) in
      ignore (Net.Routing.next_hop r topo ~from dst);
      i := if !i + 1 = n then 0 else !i + 1)

let seal_ns ~inner_len =
  let secret = String.make 32 's' and msg = String.make inner_len 'm' in
  let rng n = String.make n 'r' in
  let sealed = Crypto.Seal.seal_sym ~rng ~secret msg in
  let seal = ns_per_call (fun () -> ignore (Crypto.Seal.seal_sym ~rng ~secret msg)) in
  let open_ =
    ns_per_call (fun () ->
        match Crypto.Seal.unseal_sym ~secret sealed with
        | Some _ -> ()
        | None -> Util.check false "seal replay failed to open")
  in
  (seal, open_)

let sha256_ns ~len =
  let msg = String.make len 'h' in
  ns_per_call (fun () -> ignore (Crypto.Sha256.digest msg))

let aes_block_ns () =
  let key = Crypto.Aes.expand_key (String.make 16 'k') in
  let buf = Bytes.make 16 'b' in
  ns_per_call ~batch:256 (fun () -> Crypto.Aes.encrypt_bytes key ~src:buf ~dst:buf)

let cmac_ns () =
  (* the neutralizer's Ks derivation: CMAC over nonce || srcIP *)
  let key = Crypto.Cmac.key (String.make 16 'k') in
  let msg = String.make 12 'n' in
  ns_per_call (fun () -> ignore (Crypto.Cmac.mac key msg))

let rsa512_ns (key : Crypto.Rsa.private_key) =
  let rng n = String.make n '\x5a' in
  let ct = Crypto.Rsa.encrypt key.public ~rng (String.make 24 'g') in
  let enc = ns_per_call ~batch:8 (fun () -> ignore (Crypto.Rsa.encrypt key.public ~rng "grant-material-24-bytes!")) in
  let dec =
    ns_per_call ~batch:2 (fun () ->
        match Crypto.Rsa.decrypt key ct with
        | Some _ -> ()
        | None -> Util.check false "rsa replay failed to decrypt")
  in
  (enc, dec)

let shim_ns shim_bytes =
  let decoded =
    match Core.Shim.decode_strict shim_bytes with
    | Ok s -> s
    | Error _ -> raise (Util.Check_failed "captured shim does not decode")
  in
  let dec = ns_per_call (fun () -> ignore (Core.Shim.decode_strict shim_bytes)) in
  let enc = ns_per_call (fun () -> ignore (Core.Shim.encode decoded)) in
  (dec, enc)

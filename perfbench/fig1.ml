(* The three Figure-1 workloads: neutralized echo messages (fig1_data),
   the same with a fresh key setup per message (fig1_keysetup), and
   plain UDP datagrams through a policing access ISP (fig1_exposed). All
   three run on Scenario.World with the same compiled DSL policy on AT&T
   and Verizon. *)

module W = Scenario.World
module D = Discrimination.Dsl
open Workload

let ms n = Int64.mul (Int64.of_int n) 1_000_000L

(* Every action kind fires on the exposed mix; neutralized traffic
   (protocol 253, port 0, DSCP 0, under 1000 bytes) matches nothing. *)
let policy =
  D.Seq
    ( D.Rule (D.Dscp 46, D.Set_dscp 0),
      D.Union
        ( D.Rule (D.Dst_port 6881, D.Drop),
          D.Union
            ( D.Rule (D.Dst_port 443, D.Allow),
              D.Union
                ( D.Rule (D.Dst_port 5060, D.Delay (ms 5)),
                  D.Rule
                    ( D.And (D.Protocol 17, D.Size_at_least 1000),
                      D.Throttle
                        { D.rate_bps = 4_000_000;
                          burst_bytes = 8192;
                          max_delay_ns = ms 20
                        } ) ) ) ) )

let verdict_kind = function
  | D.V_forward -> 0
  | D.V_allow -> 1
  | D.V_drop -> 2
  | D.V_delay _ -> 3
  | D.V_throttle _ -> 4
  | D.V_remark _ -> 5

(* The compiled table for one domain, wrapped so the benchmark can count,
   time and capture its verdicts. *)
type policed = {
  compiled : D.compiled;
  domain : Net.Topology.domain_id;
  mutable verdicts : int;
  tallies : int array;
  mutable capturing : bool;
  mutable captured : (Net.Observation.t * D.verdict) list;
}

let police_body p o =
  let v = D.verdict p.compiled o in
  let k = verdict_kind v in
  p.verdicts <- p.verdicts + 1;
  p.tallies.(k) <- p.tallies.(k) + 1;
  if p.capturing then p.captured <- (o, v) :: p.captured;
  D.action_of p.compiled o v

let police (w : W.t) domain =
  let p =
    { compiled = D.compile ~engine:w.engine ~domain policy;
      domain;
      verdicts = 0;
      tallies = Array.make 6 0;
      capturing = false;
      captured = []
    }
  in
  let body = police_body p in
  Net.Network.set_middlewares w.net domain
    [ (fun o -> Spans.time1 Spans.dsl body o) ];
  p

(* The compiled table must agree with the reference interpreter on every
   captured observation, replayed in order (rate meters included). *)
let check_against_interpreter p =
  let it = D.interp_create policy in
  List.iteri
    (fun i (o, v) ->
      let v' = D.interpret ~domain:p.domain it o in
      Util.check
        (String.equal (D.verdict_to_string v) (D.verdict_to_string v'))
        "verdict %d in domain %d: compiled %s, interpreter %s" i p.domain
        (D.verdict_to_string v) (D.verdict_to_string v'))
    (List.rev p.captured)

type world = {
  w : W.t;
  att : policed;
  vz : policed;
  sites : W.site array;
}

let build () =
  let w = W.create () in
  let att = police w w.att and vz = police w w.verizon in
  let sites = Array.of_list (List.map (W.site w) W.site_names) in
  { w; att; vz; sites }

let site_addr (s : W.site) = s.node.Net.Topology.addr

let dsl_metrics wd ~ops =
  let verdicts = wd.att.verdicts + wd.vz.verdicts in
  [ m "dsl.rules" "count" (float_of_int (D.rule_count wd.att.compiled));
    m "dsl.verdicts_per_op" "count" (per_op verdicts ~ops);
    m "dsl.verdict_ns" "ns" (Spans.ns_per_call Spans.dsl)
  ]

(* Hop-by-hop lookups along every path the workload's packets take. *)
let route_lookups (w : W.t) pairs =
  Array.of_list
    (List.concat_map
       (fun (from, dst) ->
         match Net.Network.route_path w.net ~from dst with
         | None -> []
         | Some path ->
           List.filteri (fun i _ -> i < List.length path - 1) path
           |> List.map (fun n -> (n, dst)))
       pairs)

let common_layer_metrics (t : traced) ~run_ns_per_op ~nested_ns_per_op
    ~link_bw ~pkt_size ~route =
  let ops = t.ops and d = t.delta in
  let dispatch_ns = Replay.dispatch_ns ~shards:1 ~depth:(events_per_run t) () in
  let link_ns = Replay.link_send_ns ~bandwidth_bps:link_bw ~size:pkt_size in
  let hop_ns = Replay.next_hop_ns (fst route) (snd route) in
  let lookups = per_op (d.link_sent + d.link_dropped) ~ops in
  let metrics =
    [ m "engine.events_per_op" "count" (per_op d.events ~ops);
      m "engine.dispatch_ns" "ns" dispatch_ns;
      m "engine.self_us_per_op" "us" ((run_ns_per_op -. nested_ns_per_op) /. 1e3);
      m "engine.rounds_per_op" "count" 0.0;
      m "par.round_us" "us" 0.0;
      m "link.sends_per_op" "count" (per_op d.link_sent ~ops);
      m "link.drops_per_op" "count" (per_op d.link_dropped ~ops);
      m "link.send_ns" "ns" link_ns;
      m "network.sim_service_ns_per_op" "sim_ns" (per_op d.service_ns ~ops);
      m "routing.lookups_per_op" "count" lookups;
      m "routing.next_hop_ns" "ns" hop_ns
    ]
  in
  (metrics, dispatch_ns, link_ns, hop_ns)

(* ---- fig1_data and fig1_keysetup: closed loop of echoed messages ---- *)

type echo = {
  mutable got : string option;
  mutable got_peer : Net.Ipaddr.t;
  mutable got_at : int64;
}

(* World.make_client's configuration, except that a grant expires as
   soon as it is issued, so the library's own expiry path re-keys before
   every send, and that one-time keys come from [keys], made during
   set-up: §4's offline precomputation. The default hook generates keys
   lazily, about 38 ms each, and the loop would time Rsa.generate. *)
let keysetup_client (w : W.t) host ~seed ~keys =
  let drbg = Crypto.Drbg.create ~seed:(seed ^ "-cfg") in
  let base =
    Core.Client.default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n)
  in
  let next = ref 0 in
  let take () =
    let k = keys.(!next mod Array.length keys) in
    incr next;
    k
  in
  let config =
    { base with
      Core.Client.dns_server = Some w.resolver_addr;
      dns_encrypt = Some w.resolver_key.Crypto.Rsa.public;
      dns_verify = Some w.resolver_key.Crypto.Rsa.public;
      onetime_keygen = (fun () -> Spans.time1 Spans.keygen take ());
      grant_max_age = 0L
    }
  in
  Core.Client.create host ~config ~seed ()

let payload_len = 64

(* spent grants are kept this long (simulated); an op takes at most
   about 31 ms, so in-flight return packets always find theirs *)
let grant_retention_ns = 2_000_000_000L

(* coincidental ciphertext matches tolerated per site, see [verify] *)
let content_match_bound = 8

let echo_loop ~seed ~keysetup () =
  let wd = build () in
  let w = wd.w in
  let engine = w.engine in
  let clients =
    if keysetup then begin
      let keys = Array.init 8 Scenario.Keyring.onetime in
      [| keysetup_client w w.ann_host ~seed:"ann" ~keys;
         keysetup_client w w.ben_host ~seed:"ben" ~keys
      |]
    end
    else
      [| W.make_client w w.ann_host ~seed:"ann" ();
         W.make_client w w.ben_host ~seed:"ben" ()
      |]
  in
  let echoes =
    Array.map
      (fun c ->
        let e = { got = None; got_peer = w.anycast; got_at = 0L } in
        Core.Client.set_receiver c (fun ~peer s ->
            e.got <- Some s;
            e.got_peer <- peer;
            e.got_at <- Net.Engine.now engine);
        e)
      clients
  in
  Array.iter
    (fun (s : W.site) ->
      Core.Server.set_responder s.server (fun srv ~peer payload ->
          Spans.time1 Spans.server_reply
            (fun () ->
              Core.Server.reply srv ~session:peer ~app:"reply" ("re:" ^ payload))
            ()))
    wd.sites;
  let names = Array.map (fun (s : W.site) -> s.site_name ^ ".example") wd.sites in
  let rng = Random.State.make [| seed; 0xf191 |] in
  let payloads =
    Array.init 256 (fun _ ->
        String.init payload_len (fun _ -> Char.chr (32 + Random.State.int rng 95)))
  in
  let expected = Array.map (fun p -> "re:" ^ p) payloads in
  let site_seq = deck ~seed ~kinds:(Array.length wd.sites) ~copies:1024 in
  let failed = ref 0 in
  let run () = W.run w in
  let send_and_wait ci s payload =
    let c = clients.(ci) and e = echoes.(ci) in
    e.got <- None;
    Spans.time1 Spans.client_send
      (fun () -> Core.Client.send_to_name c ~name:names.(s) payload)
      ();
    Spans.time1 Spans.run run ()
  in
  (* Warm-up: DNS bootstrap, first key setup and session for every
     (client, site) pair. *)
  Array.iteri
    (fun ci _ ->
      Array.iteri
        (fun s _ ->
          send_and_wait ci s payloads.(0);
          Util.check
            (echoes.(ci).got = Some expected.(0))
            "warm-up echo missing for client %d site %d" ci s)
        wd.sites)
    clients;
  let prefix = if keysetup then 500 else 2000 in
  let op = ref 0 in
  let rtts = ref [] and app_bytes = ref 0 in
  let dg = Util.Digest64.create () in
  let one_op () =
    let i = !op in
    let ci = i land 1 and s = site_seq.(i mod Array.length site_seq) in
    let k = i land 255 in
    let c = clients.(ci) and e = echoes.(ci) in
    let ctrs = Core.Client.counters c in
    let done0 = ctrs.key_setups_completed and failed0 = ctrs.key_setups_failed in
    let t0 = Net.Engine.now engine in
    send_and_wait ci s payloads.(k);
    let echoed =
      match e.got with
      | Some r ->
        String.equal r expected.(k)
        && Net.Ipaddr.equal e.got_peer (site_addr wd.sites.(s))
      | None -> false
    in
    (* fig1_data's grants last World.make_client's default 54 simulated
       minutes, so its sessions re-key only that rarely, through the same
       expiry path; fig1_keysetup re-keys on every op *)
    let setups_ok =
      ctrs.key_setups_failed = failed0
      && ((not keysetup) || ctrs.key_setups_completed = done0 + 1)
    in
    if not (echoed && setups_ok) then incr failed;
    if i < prefix then begin
      let rtt = Int64.sub e.got_at t0 in
      rtts := Int64.to_float rtt :: !rtts;
      app_bytes := !app_bytes + payload_len + String.length expected.(k);
      Util.Digest64.int dg ci;
      Util.Digest64.int dg s;
      Util.Digest64.int64 dg rtt;
      Util.Digest64.string dg (Option.value ~default:"" e.got);
      Util.Digest64.int dg (ctrs.key_setups_completed - done0);
      if i = prefix - 1 then
        Array.iter (Util.Digest64.int dg)
          (Array.append wd.att.tallies wd.vz.tallies)
    end;
    incr op
  in
  (* A unit is Ann's op then Ben's: Ben's path has one more hop, so
     single-op times form two clusters split exactly in half and their
     median would sit on the gap between them. *)
  let unit_ () =
    one_op ();
    one_op ();
    if keysetup && !op land 63 = 0 then
      (* Each key setup leaves a spent grant behind; like any long-running
         client, evict grants that no op can still use. *)
      Array.iter
        (fun c ->
          Core.Keytab.drop_older_than (Core.Client.keytab c)
            ~now:(Net.Engine.now engine) ~max_age:grant_retention_ns)
        clients;
    2
  in
  let verify () =
    Util.check (!failed = 0) "%d of %d ops failed" !failed !op;
    (* §2 opacity: no site address inside either access ISP's traces.
       Header fields must never carry it. [observed_address_leaks] also
       matches the 4 address bytes anywhere in shim and payload bytes,
       where ciphertext hits them by chance (in about one run in 50 at
       these trace sizes); a real content leak would show in every packet
       to the site, thousands per run, so content matches are bounded,
       not zeroed. *)
    Array.iter
      (fun (s : W.site) ->
        let addr = site_addr s in
        let header tr =
          Net.Trace.count tr (fun o ->
              Net.Ipaddr.equal o.Net.Observation.src addr
              || Net.Ipaddr.equal o.dst addr)
        in
        let traces = [ w.att_trace; w.verizon_trace ] in
        let header = List.fold_left (fun a tr -> a + header tr) 0 traces in
        let all =
          List.fold_left (fun a tr -> a + W.observed_address_leaks tr addr) 0 traces
        in
        Util.check (header = 0) "%d packet headers expose %s" header s.site_name;
        Util.check (all - header <= content_match_bound)
          "%d observations carry %s's address bytes" (all - header) s.site_name)
      wd.sites
  in
  let sim_op_ms () = Util.median_list !rtts /. 1e6 in
  let sim_goodput_mbps () =
    let span_s = List.fold_left ( +. ) 0.0 !rtts /. 1e9 in
    float_of_int (8 * !app_bytes) /. span_s /. 1e6
  in
  let layers (t : traced) =
    let ops = t.ops and d = t.delta in
    let tops = t.traced_ops in
    (* capture packets inside Cogent to replay the box's work *)
    let captured = ref [] in
    Net.Network.add_tap w.net w.cogent (fun o ->
        match o.Net.Observation.shim with
        | Some sh -> captured := (o, sh) :: !captured
        | None -> ());
    let was_on = !Spans.on in
    Spans.on := false;
    ignore (unit_ ());
    Spans.on := was_on;
    let find f = List.find_map f (List.rev !captured) in
    let to_packet (o : Net.Observation.t) sh =
      Net.Packet.make ~protocol:Net.Packet.Shim ~shim:sh ~src:o.src ~dst:o.dst
        ~dscp:o.dscp ~ttl:o.ttl o.payload
    in
    let data =
      find (fun (o, sh) ->
          match Core.Shim.decode_strict sh with
          | Ok (Core.Shim.Data dd) when not dd.from_customer ->
            Some (o, sh, dd)
          | _ -> None)
    in
    let ret =
      find (fun (o, sh) ->
          match Core.Shim.decode_strict sh with
          | Ok (Core.Shim.Return { epoch; nonce; initiator }) ->
            Some (o, sh, (epoch, nonce, initiator))
          | _ -> None)
    in
    let setup_req =
      find (fun (o, sh) ->
          match Core.Shim.decode_strict sh with
          | Ok (Core.Shim.Key_setup_request { pubkey; _ }) -> Some (o, pubkey)
          | _ -> None)
    in
    let o_data, sh_data, dd =
      match data with
      | Some x -> x
      | None -> raise (Util.Check_failed "no forward data packet captured")
    in
    let drbg = Crypto.Drbg.create ~seed:"replay" in
    let rng n = Crypto.Drbg.generate drbg n in
    let master = w.master and self = w.anycast in
    let p_data = to_packet o_data sh_data in
    let forward_ns =
      Replay.ns_per_call (fun () ->
          match Core.Datapath.forward_outside_data ~master ~rng ~self p_data dd with
          | Core.Datapath.Forwarded _ -> ()
          | Core.Datapath.Rejected r -> Util.check false "forward replay rejected: %s" r)
    in
    let return_ns =
      match ret with
      | None -> raise (Util.Check_failed "no return packet captured")
      | Some (o, sh, (epoch, nonce, initiator)) ->
        let p = to_packet o sh in
        Replay.ns_per_call (fun () ->
            match
              Core.Datapath.forward_return_data ~master ~self p ~epoch ~nonce
                ~initiator
            with
            | Core.Datapath.Forwarded _ -> ()
            | Core.Datapath.Rejected r ->
              Util.check false "return replay rejected: %s" r)
    in
    let key_setup_ns =
      match setup_req with
      | Some (o, pubkey_blob) when d.box_setups > 0 ->
        Replay.ns_per_call ~batch:4 (fun () ->
            match
              Core.Datapath.key_setup_response ~master ~rng ~src:o.src ~pubkey_blob
            with
            | Some _ -> ()
            | None -> Util.check false "key-setup replay failed")
      | _ -> 0.0
    in
    let decode_ns, encode_ns = Replay.shim_ns sh_data in
    let inner_len =
      String.length (Core.Session.encode_inner (Core.Session.plain payloads.(0)))
    in
    let seal_ns, open_ns = Replay.seal_ns ~inner_len in
    let sha_ns = Replay.sha256_ns ~len:inner_len in
    let aes_ns = Replay.aes_block_ns () in
    let cmac_ns = Replay.cmac_ns () in
    let rsa_enc_ns, rsa_dec_ns =
      if d.rsa_decrypts > 0 then Replay.rsa512_ns (Scenario.Keyring.onetime 0)
      else (0.0, 0.0)
    in
    let route =
      let box = Core.Neutralizer.node (List.hd w.boxes) in
      let pairs =
        [ (w.ann.nid, w.anycast); (w.ben.nid, w.anycast); (box.nid, w.ann.addr) ]
        @ Array.to_list
            (Array.concat
               [ Array.map (fun (s : W.site) -> (s.node.nid, w.anycast)) wd.sites;
                 Array.map (fun (s : W.site) -> (box.nid, site_addr s)) wd.sites
               ])
      in
      (w.topo, route_lookups w pairs)
    in
    let run_ns = Spans.ns_per_op Spans.run ~ops:tops in
    let nested = Spans.ns_per_op Spans.server_reply ~ops:tops +. Spans.ns_per_op Spans.dsl ~ops:tops in
    let common, dispatch_ns, link_ns, hop_ns =
      common_layer_metrics t ~run_ns_per_op:run_ns ~nested_ns_per_op:nested
        ~link_bw:100_000_000 ~pkt_size:o_data.size
        ~route
    in
    let f = per_op d.forwards ~ops and r = per_op d.returns ~ops in
    let su = per_op d.box_setups ~ops in
    let keytab_sessions =
      Array.fold_left
        (fun acc c -> acc + Core.Keytab.session_count (Core.Client.keytab c))
        0 clients
    in
    let metrics =
      common
      @ dsl_metrics wd ~ops
      @ [ m "client.send_us" "us" (Spans.ns_per_call Spans.client_send /. 1e3);
          m "server.reply_us" "us" (Spans.ns_per_call Spans.server_reply /. 1e3);
          m "seal.seal_ns" "ns" seal_ns;
          m "seal.open_ns" "ns" open_ns;
          m "sha256.digest_ns" "ns" sha_ns;
          m "keytab.sessions" "count" (float_of_int keytab_sessions);
          m "datapath.forwards_per_op" "count" f;
          m "datapath.returns_per_op" "count" r;
          m "datapath.forward_ns" "ns" forward_ns;
          m "datapath.return_ns" "ns" return_ns;
          m "datapath.key_setup_ns" "ns" key_setup_ns;
          m "shim.decode_ns" "ns" decode_ns;
          m "shim.encode_ns" "ns" encode_ns;
          m "aes.blocks_per_op" "count" (per_op d.aes_blocks ~ops);
          m "aes.block_ns" "ns" aes_ns;
          m "cmac.mac_ns" "ns" cmac_ns;
          m "rsa.encrypts_per_op" "count" (per_op d.rsa_encrypts ~ops);
          m "rsa.decrypts_per_op" "count" (per_op d.rsa_decrypts ~ops);
          m "rsa.encrypt512_ns" "ns" rsa_enc_ns;
          m "rsa.decrypt512_ns" "ns" rsa_dec_ns;
          m "keygen.take_ns" "ns" (Spans.ns_per_call Spans.keygen)
        ]
    in
    (* Attribution: the spans, plus count x replayed cost for the work the
       engine runs outside them. Each client send and server reply makes
       one origin lookup and link send inside its span; the box decodes
       every shim it handles and the endpoints decode what it sends them
       (2 x (forwards + returns + setups)); the endpoints open one sealed
       payload per forward and per return; the client's RSA decrypt runs
       on the setup response. With a key setup per op the client seals
       its data packet from the engine, outside the send span. *)
    let in_span =
      float_of_int (Spans.client_send.calls + Spans.server_reply.calls)
      /. float_of_int (max 1 tops)
    in
    let outside_seals = su in
    let attributed =
      Spans.ns_per_op Spans.client_send ~ops:tops
      +. Spans.ns_per_op Spans.server_reply ~ops:tops
      +. Spans.ns_per_op Spans.dsl ~ops:tops
      +. (per_op d.events ~ops *. dispatch_ns)
      +. ((per_op d.link_sent ~ops -. in_span) *. link_ns)
      +. ((per_op (d.link_sent + d.link_dropped) ~ops -. in_span) *. hop_ns)
      +. (f *. forward_ns) +. (r *. return_ns) +. (su *. key_setup_ns)
      +. (2.0 *. (f +. r +. su) *. decode_ns)
      +. ((f +. r) *. open_ns)
      +. (outside_seals *. seal_ns)
      +. (per_op d.rsa_decrypts ~ops *. rsa_dec_ns)
    in
    (metrics, attributed)
  in
  { prefix_units = prefix / 2;
    prepare = (fun () -> ());
    unit_;
    sim_op_ms;
    sim_goodput_mbps;
    digest = (fun () -> Util.Digest64.to_hex dg);
    verify;
    failed = (fun () -> !failed);
    engine_totals = (fun () -> (Net.Engine.processed engine, 0));
    registry = Net.Engine.obs engine;
    layers
  }

(* ---- fig1_exposed: plain datagrams through AT&T on a fixed simulated-time schedule ---- *)

(* (destination port, wire size, DSCP): drop, allow, delay, throttle,
   remark-and-forward, no match *)
let classes =
  [| (6881, 200, 0); (443, 1300, 0); (5060, 64, 0); (9000, 1300, 0);
     (8000, 64, 46); (53, 64, 0) |]

let batch = 64
let spacing_ns = 100_000L

let exposed ~seed () =
  let wd = build () in
  let w = wd.w in
  let engine = w.engine in
  let rng = Random.State.make [| seed; 0xe905 |] in
  let payloads =
    Array.map
      (fun (_, size, _) ->
        String.init (size - 28) (fun _ -> Char.chr (Random.State.int rng 256)))
      classes
  in
  let class_seq = deck ~seed ~kinds:(Array.length classes) ~copies:2048 in
  let site_seq = deck ~seed:(seed + 1) ~kinds:(Array.length wd.sites) ~copies:2048 in
  let prefix = 100 in
  let prefix_datagrams = prefix * batch in
  let delivered = ref 0 in
  let delays = ref [] and prefix_bytes = ref 0 in
  let dg = Util.Digest64.create () in
  Array.iter
    (fun (s : W.site) ->
      Net.Host.on_deliver s.host (fun p ->
          if p.Net.Packet.protocol = Net.Packet.Udp then begin
            incr delivered;
            let seq = p.meta.seq in
            if seq < prefix_datagrams then begin
              let delay = Int64.sub (Net.Engine.now engine) p.meta.sent_at in
              delays := Int64.to_float delay :: !delays;
              prefix_bytes := !prefix_bytes + Net.Packet.size p;
              Util.Digest64.int dg seq;
              Util.Digest64.int64 dg delay;
              Util.Digest64.int dg p.dscp
            end
          end))
    wd.sites;
  let policy_drops () = (Net.Network.counters w.net).dropped_policy in
  let failed = ref 0 and batch_no = ref 0 in
  let start_at = Net.Engine.now engine in
  let send_time j = Int64.add start_at (Int64.mul (Int64.of_int j) spacing_ns) in
  wd.att.capturing <- true;
  (* Datagram j leaves Ann at [send_time j] whatever the host does: a
     unit posts the next batch and advances the world to the batch's end,
     leaving packets still queued or shaped in flight for later units. *)
  let unit_ () =
    let b = !batch_no in
    for k = 0 to batch - 1 do
      let j = (b * batch) + k in
      let port, _, dscp = classes.(class_seq.(j mod Array.length class_seq)) in
      let payload = payloads.(class_seq.(j mod Array.length class_seq)) in
      let dst = site_addr wd.sites.(site_seq.(j mod Array.length site_seq)) in
      ignore
        (Net.Engine.post engine ~shard:0 ~at:(send_time j) (fun () ->
             Net.Host.send_udp w.ann_host ~dst ~dst_port:port ~dscp ~seq:j payload))
    done;
    let until = send_time ((b + 1) * batch) in
    Spans.time1 Spans.run (fun () -> W.run ~until w) ();
    incr batch_no;
    if !batch_no = prefix then begin
      wd.att.capturing <- false;
      Array.iter (Util.Digest64.int dg) wd.att.tallies
    end;
    batch
  in
  let verify () =
    (* drain what is still in flight, then account for every datagram *)
    W.run w;
    let sent = !batch_no * batch in
    failed := sent - (!delivered + policy_drops ());
    Util.check (!failed = 0) "%d of %d datagrams neither delivered nor policy-dropped"
      !failed sent;
    Util.check (wd.att.captured <> []) "no verdicts captured";
    check_against_interpreter wd.att;
    (* every action kind fired in the prefix *)
    Array.iteri
      (fun k n -> Util.check (n > 0) "verdict kind %d never fired" k)
      wd.att.tallies
  in
  let sim_op_ms () = Util.median_list !delays /. 1e6 in
  let sim_goodput_mbps () =
    let span_s = Int64.to_float (Int64.sub (send_time prefix_datagrams) start_at) /. 1e9 in
    float_of_int (8 * !prefix_bytes) /. span_s /. 1e6
  in
  let layers (t : traced) =
    let ops = t.ops and tops = t.traced_ops in
    let route =
      ( w.topo,
        route_lookups w
          (Array.to_list (Array.map (fun s -> (w.ann.nid, site_addr s)) wd.sites)) )
    in
    let run_ns = Spans.ns_per_op Spans.run ~ops:tops in
    let dsl_ns = Spans.ns_per_op Spans.dsl ~ops:tops in
    let common, dispatch_ns, link_ns, hop_ns =
      common_layer_metrics t ~run_ns_per_op:run_ns ~nested_ns_per_op:dsl_ns
        ~link_bw:100_000_000
        ~pkt_size:(let _, s, _ = classes.(0) in s)
        ~route
    in
    let d = t.delta in
    let attributed =
      dsl_ns
      +. (per_op d.events ~ops *. dispatch_ns)
      +. (per_op d.link_sent ~ops *. link_ns)
      +. (per_op (d.link_sent + d.link_dropped) ~ops *. hop_ns)
    in
    (common @ dsl_metrics wd ~ops, attributed)
  in
  { prefix_units = prefix;
    prepare = (fun () -> ());
    unit_;
    sim_op_ms;
    sim_goodput_mbps;
    digest = (fun () -> Util.Digest64.to_hex dg);
    verify;
    failed = (fun () -> !failed);
    engine_totals = (fun () -> (Net.Engine.processed engine, 0));
    registry = Net.Engine.obs engine;
    layers
  }

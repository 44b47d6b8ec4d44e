type grant = { epoch : int; nonce : string; key : string; obtained_at : int64 }

(* The table is sharded so that several domains can memoize and look up
   grants concurrently: each shard carries its own
   mutex and its own hashtables, and no operation ever holds two shard
   locks at once (eviction collects under the grant shard's lock, then
   removes sessions shard by shard after releasing it). With one domain
   the locks are uncontended and the behaviour is exactly the old
   single-table one. *)

let shard_bits = 3
let shard_count = 1 lsl shard_bits

type shard = {
  mu : Mutex.t;
  current_tbl : (Net.Ipaddr.t, grant) Hashtbl.t;
  by_nonce : (string, grant) Hashtbl.t;
}

type session_shard = {
  smu : Mutex.t;
  sessions : (string, Datapath.session) Hashtbl.t;
      (* memoized per-grant transform state (AES schedule, mask slice);
         keyed by the grant material itself so it is correct regardless of
         which neutralizer or index the grant was found through *)
}

type t = {
  shards : shard array;
  session_shards : session_shard array;
  evicted : int Atomic.t;
      (* total grants evicted by {!drop_older_than}; the stress test
         asserts eviction fires exactly once per stale grant *)
}

let create () =
  { shards =
      Array.init shard_count (fun _ ->
          { mu = Mutex.create ();
            current_tbl = Hashtbl.create 8;
            by_nonce = Hashtbl.create 32
          });
    session_shards =
      Array.init shard_count (fun _ ->
          { smu = Mutex.create (); sessions = Hashtbl.create 32 });
    evicted = Atomic.make 0
  }

let shard_of t ~neutralizer =
  t.shards.(Hashtbl.hash (Net.Ipaddr.to_octets neutralizer)
            land (shard_count - 1))

let session_key g =
  String.make 1 (Char.chr (g.epoch land 0xff)) ^ g.nonce ^ g.key

let session_shard_of t skey =
  t.session_shards.(Hashtbl.hash skey land (shard_count - 1))

let session t g =
  let k = session_key g in
  let sh = session_shard_of t k in
  Mutex.protect sh.smu (fun () ->
      match Hashtbl.find_opt sh.sessions k with
      | Some s -> s
      | None ->
        let s = Datapath.make_session ~ks:g.key ~epoch:g.epoch ~nonce:g.nonce in
        Hashtbl.replace sh.sessions k s;
        s)

let nonce_key ~neutralizer ~nonce = Net.Ipaddr.to_octets neutralizer ^ nonce

let put t ~neutralizer g =
  let sh = shard_of t ~neutralizer in
  Mutex.protect sh.mu (fun () ->
      Hashtbl.replace sh.current_tbl neutralizer g;
      Hashtbl.replace sh.by_nonce (nonce_key ~neutralizer ~nonce:g.nonce) g)

let current t ~neutralizer =
  let sh = shard_of t ~neutralizer in
  Mutex.protect sh.mu (fun () -> Hashtbl.find_opt sh.current_tbl neutralizer)

let find_nonce t ~neutralizer ~nonce =
  let sh = shard_of t ~neutralizer in
  Mutex.protect sh.mu (fun () ->
      Hashtbl.find_opt sh.by_nonce (nonce_key ~neutralizer ~nonce))

let invalidate t ~neutralizer =
  let sh = shard_of t ~neutralizer in
  Mutex.protect sh.mu (fun () -> Hashtbl.remove sh.current_tbl neutralizer)

let age t ~neutralizer ~now =
  Option.map (fun g -> Int64.sub now g.obtained_at) (current t ~neutralizer)

let drop_older_than t ~now ~max_age =
  let stale g = Int64.compare (Int64.sub now g.obtained_at) max_age > 0 in
  (* Phase 1: per grant shard, under that shard's lock only, remove the
     stale entries and remember which sessions they owned. *)
  let stale_sessions = ref [] in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          let stale_nonce =
            Hashtbl.fold
              (fun k g acc ->
                if stale g then begin
                  stale_sessions := session_key g :: !stale_sessions;
                  Atomic.incr t.evicted;
                  k :: acc
                end
                else acc)
              sh.by_nonce []
          in
          List.iter (Hashtbl.remove sh.by_nonce) stale_nonce;
          let stale_cur =
            Hashtbl.fold
              (fun k g acc -> if stale g then k :: acc else acc)
              sh.current_tbl []
          in
          List.iter (Hashtbl.remove sh.current_tbl) stale_cur))
    t.shards;
  (* Phase 2: drop the memoized sessions, each under its own session
     shard's lock — no grant-shard lock is held any more. *)
  List.iter
    (fun k ->
      let sh = session_shard_of t k in
      Mutex.protect sh.smu (fun () -> Hashtbl.remove sh.sessions k))
    !stale_sessions

let evictions t = Atomic.get t.evicted

let grants t =
  Array.fold_left
    (fun acc sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.fold (fun k g acc -> (k, g) :: acc) sh.current_tbl acc))
    [] t.shards

let session_count t =
  Array.fold_left
    (fun acc sh ->
      Mutex.protect sh.smu (fun () -> acc + Hashtbl.length sh.sessions))
    0 t.session_shards

let clear t =
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.reset sh.current_tbl;
          Hashtbl.reset sh.by_nonce))
    t.shards;
  Array.iter
    (fun sh -> Mutex.protect sh.smu (fun () -> Hashtbl.reset sh.sessions))
    t.session_shards

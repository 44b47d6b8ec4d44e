(** End-to-end encrypted sessions between the two endpoints.

    The paper uses e2e encryption as a black box (§3.1); this module is
    the box: a first packet sealed to the peer's long-term RSA-1024 key
    establishes a 32-byte session secret, subsequent packets ride on
    symmetric crypto under that secret. The secret's AES and MAC keys are
    derived per session, not per packet: once for the session's entry
    ({!Crypto.Seal.keys}, in {!register}) and once more on each side for
    the set-up packet, which is sealed and opened under the bare secret.
    Sessions are located by an opaque 8-byte session id derived from the
    secret — {e not} by addresses, which are blurred in both directions.

    The encrypted inner message also carries the protocol's key material
    side-channels: the refresh grant echo (§3.2) and the reverse-direction
    key grant (§3.3). *)

type inner = {
  refresh : Shim.refresh option;
      (** destination -> source: echo of the (nonce', Ks') the neutralizer
          stamped into a key-requesting packet *)
  reverse_key : (int * string * string) option;
      (** customer -> outside destination: the (epoch, nonce, Ks) the
          customer obtained in-domain, granting the outside party a key
          for the customer's neutralizer *)
  app : string;  (** application bytes *)
}

val plain : string -> inner
(** [plain app] is an inner message with no key material. *)

val encode_inner : inner -> string
val decode_inner : string -> inner option

type session = private {
  keys : Crypto.Seal.keys;
      (** the symmetric state of the session secret, derived in
          {!register} and used by every {!data_payload}/{!open_data} of
          the session; immutable, so sessions stay shareable across
          domains *)
  sid : string;  (** 8 bytes, [H(secret)] truncated *)
  peer : Net.Ipaddr.t;  (** real address of the other endpoint *)
  mutable last_used : int64;
}

type table

val create_table : unit -> table

val clear_table : table -> unit
(** Drop every session — crash amnesia. Peers re-establish with fresh
    secrets (and therefore fresh sids) on the next send. *)

val sid_of_secret : string -> string

val register : table -> secret:string -> peer:Net.Ipaddr.t -> now:int64 -> session
(** Adds the session and derives its {!field-keys}, which every data
    packet of the session then reuses. The set-up packet
    ({!initial_payload}/{!accept_initial}) derives the keys from the
    secret once more on its own. *)

val find : table -> sid:string -> session option
val find_by_peer : table -> peer:Net.Ipaddr.t -> session option
val sessions : table -> session list

(** {1 Payload construction} *)

val initial_payload :
  rng:(int -> string) -> peer_key:Crypto.Rsa.public -> secret:string ->
  inner -> string
(** First packet of a session: ['N'] + hybrid envelope to the peer's
    long-term key, carrying [secret] and the inner message. *)

val data_payload : rng:(int -> string) -> session -> inner -> string
(** Steady-state packet: ['D'] + sid + symmetric envelope, sealed under
    the session's cached keys. *)

val accept_initial :
  private_key:Crypto.Rsa.private_key -> string -> (string * inner) option
(** Destination side: open an ['N'] payload, returning [(secret, inner)].
    The caller registers the session. *)

val open_data : table -> now:int64 -> string -> (session * inner) option
(** Open a ['D'] payload against the table (verifies the MAC and bumps
    [last_used]). *)

val expire : table -> now:int64 -> idle:int64 -> session list
(** Drop and return sessions unused for longer than [idle] ns. Hosts run
    this periodically so the only per-peer state in the system — at the
    {e end hosts}, never the neutralizer — stays bounded. *)

val count : table -> int

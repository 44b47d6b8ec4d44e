(** Hybrid public-key envelopes: RSA-encrypted 32-byte secret, AES-CTR
    body, HMAC-SHA256 tag. The "standard end-to-end encryption techniques
    (e.g., IPsec)" that the paper uses as a black box (§3.1) — this is our
    concrete instantiation.

    [seal]/[unseal] open a fresh secret per message; the symmetric
    variants reuse an established secret (e.g. for a response on the same
    exchange, or an ongoing session).

    A symmetric envelope is [nonce (16) ^ AES-CTR body ^ tag (16)], the
    tag being the truncated HMAC of [nonce ^ body]. Its AES and MAC keys
    are derived from the secret by {!Hmac.derive}; {!keys} does that once,
    so a long-lived session seals and opens each packet with
    {!seal_keys}/{!open_keys} and pays only for the packet. *)

type keys
(** The symmetric state of one secret: the expanded AES key and the
    prepared MAC key. Immutable, so one [keys] may be shared freely
    across domains. *)

val keys : string -> keys
(** [keys secret] derives the AES and MAC keys of [secret]. *)

val seal_keys : rng:(int -> string) -> keys -> string -> string
(** [seal_keys ~rng (keys secret) m] is byte for byte
    [seal_sym ~rng ~secret m] for the same [rng] draws. *)

val open_keys : keys -> string -> string option
(** [None] on a short blob or a bad tag. *)

val seal : rng:(int -> string) -> pub:Rsa.public -> string -> string
(** Raises [Invalid_argument] if the RSA modulus is too small for the
    32-byte secret (needs >= 43 bytes, i.e. >= 344-bit keys). *)

val seal_with_secret :
  rng:(int -> string) -> pub:Rsa.public -> secret:string -> string -> string
(** [seal] under a caller-chosen [secret] ([seal] draws it from [rng]),
    so the sender can keep it: to open the answer with {!unseal_sym}, or
    to name a session before the first reply. *)

val unseal : priv:Rsa.private_key -> string -> (string * string) option
(** [unseal ~priv blob] is [Some (secret, plaintext)] for a [seal]
    envelope, decrypting the RSA part once, so the receiver can answer
    with {!seal_sym} under the same secret. [None] if the secret is not
    32 bytes or the envelope does not open. *)

val seal_sym : rng:(int -> string) -> secret:string -> string -> string
(** [secret] is the 32-byte value recovered by the receiving side.
    [seal_keys ~rng (keys secret)]: derives the keys on every call. *)

val unseal_sym : secret:string -> string -> string option
(** [open_keys (keys secret)]. *)

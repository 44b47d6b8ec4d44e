(** HMAC-SHA256 (RFC 2104), used as the PRF for end-to-end session key
    derivation and as the end-to-end MAC inside {!Seal}. *)

type key
(** A prepared key: the SHA-256 midstates after the ipad and opad blocks.
    A MAC under a prepared key hashes only the message and the inner
    digest, not the padded key again. Immutable, so one [key] may be
    shared freely across domains. *)

val prepare : string -> key
(** [prepare k] pads (or first hashes, if longer than 64 bytes) [k];
    keys of any length. *)

val mac_with : key -> string -> string
(** [mac_with key msg] is the 32-byte tag. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is [mac_with (prepare key) msg]. *)

val mac_hex : key:string -> string -> string

(** [derive ~secret ~label ~length] expands [secret] into [length] bytes of
    key material using counter-mode HMAC (a simplified HKDF-Expand). The
    secret is prepared once per call. *)
val derive : secret:string -> label:string -> length:int -> string

let nonce_len = 16
let tag_len = 16

type keys = { enc : Aes.key; mac : Hmac.key }

let keys secret =
  { enc = Aes.expand_key (Hmac.derive ~secret ~label:"seal-enc" ~length:16);
    mac = Hmac.prepare (Hmac.derive ~secret ~label:"seal-mac" ~length:16)
  }

let seal_keys ~rng k plaintext =
  let nonce = rng nonce_len in
  let body = nonce ^ Mode.ctr ~key:k.enc ~nonce plaintext in
  body ^ String.sub (Hmac.mac_with k.mac body) 0 tag_len

let open_keys k blob =
  let n = String.length blob in
  if n < nonce_len + tag_len then None
  else begin
    let body = String.sub blob 0 (n - tag_len) in
    let expect = String.sub (Hmac.mac_with k.mac body) 0 tag_len in
    if Bytes_util.equal_ct (String.sub blob (n - tag_len) tag_len) expect then
      Some
        (Mode.ctr ~key:k.enc
           ~nonce:(String.sub body 0 nonce_len)
           (String.sub body nonce_len (n - nonce_len - tag_len)))
    else None
  end

let seal_sym ~rng ~secret plaintext = seal_keys ~rng (keys secret) plaintext
let unseal_sym ~secret blob = open_keys (keys secret) blob

let seal_with_secret ~rng ~pub ~secret plaintext =
  let rsa_ct = Rsa.encrypt pub ~rng secret in
  let buf = Buffer.create (String.length plaintext + 96) in
  Buffer.add_char buf 'S';
  Bytes_util.put_u32 buf (String.length rsa_ct);
  Buffer.add_string buf rsa_ct;
  Buffer.add_string buf (seal_sym ~rng ~secret plaintext);
  Buffer.contents buf

let seal ~rng ~pub plaintext = seal_with_secret ~rng ~pub ~secret:(rng 32) plaintext

let recover_secret ~priv blob =
  if String.length blob < 5 || blob.[0] <> 'S' then None
  else begin
    let ctlen = Bytes_util.get_u32 blob 1 in
    if ctlen <= 0 || 5 + ctlen > String.length blob then None
    else Rsa.decrypt priv (String.sub blob 5 ctlen)
  end

let unseal ~priv blob =
  match recover_secret ~priv blob with
  | Some secret when String.length secret = 32 ->
    let ctlen = Bytes_util.get_u32 blob 1 in
    Option.map
      (fun body -> (secret, body))
      (unseal_sym ~secret (Bytes_util.drop (5 + ctlen) blob))
  | Some _ | None -> None

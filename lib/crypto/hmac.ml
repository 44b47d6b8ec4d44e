let block_size = 64

type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let key = key ^ String.make (block_size - String.length key) '\x00' in
  let pad c = Bytes_util.xor key (String.make block_size c) in
  { inner = Sha256.midstate (pad '\x36'); outer = Sha256.midstate (pad '\x5c') }

let mac_with k msg = Sha256.digest_from k.outer (Sha256.digest_from k.inner msg)
let mac ~key msg = mac_with (prepare key) msg
let mac_hex ~key msg = Bytes_util.to_hex (mac ~key msg)

let derive ~secret ~label ~length =
  let key = prepare secret in
  let buf = Buffer.create length in
  let counter = ref 0 in
  while Buffer.length buf < length do
    incr counter;
    Buffer.add_string buf
      (mac_with key (label ^ String.make 1 (Char.chr !counter)))
  done;
  String.sub (Buffer.contents buf) 0 length

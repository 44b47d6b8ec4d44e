(* Host-time spans the benchmark records around its own calls into the
   layers and around the hooks it installs through public APIs. Off in
   untraced runs (one branch per call); a traced run switches them on
   for alternate blocks so the same run also measures their overhead. *)

type acc = { mutable total : float; mutable calls : int }

let on = ref false
let make () = { total = 0.0; calls = 0 }

(* engine run, client send, server reply, DSL middleware, keygen hook *)
let run = make ()
let client_send = make ()
let server_reply = make ()
let dsl = make ()
let keygen = make ()

let time1 acc f x =
  if !on then begin
    let t0 = Util.now () in
    let r = f x in
    acc.total <- acc.total +. (Util.now () -. t0);
    acc.calls <- acc.calls + 1;
    r
  end
  else f x

(* Mean host nanoseconds per call, 0 when the span never ran. *)
let ns_per_call acc =
  if acc.calls = 0 then 0.0 else 1e9 *. acc.total /. float_of_int acc.calls

let ns_per_op acc ~ops = if ops = 0 then 0.0 else 1e9 *. acc.total /. float_of_int ops

(* Stop-the-world time of the main domain, from the stdlib runtime_events
   ring: minor collections and major slices, begin to end. *)
module Gc_pause = struct
  let cursor = ref None
  let open_at = Array.make 2 0L
  let paused = ref 0L
  let lost = ref 0

  let tracked = function
    | Runtime_events.EV_MINOR -> Some 0
    | Runtime_events.EV_MAJOR_SLICE -> Some 1
    | _ -> None

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if ring = 0 then
          match tracked phase with
          | Some k -> open_at.(k) <- Runtime_events.Timestamp.to_int64 ts
          | None -> ())
      ~runtime_end:(fun ring ts phase ->
        if ring = 0 then
          match tracked phase with
          | Some k when open_at.(k) > 0L ->
            paused :=
              Int64.add !paused
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) open_at.(k));
            open_at.(k) <- 0L
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)

  let paused_s () = Int64.to_float !paused /. 1e9
end

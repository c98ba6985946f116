(* Capped exponential backoff with full jitter (the AWS-style
   "FullJitter" policy): attempt k draws a delay uniformly from
   [0, min(cap, base * 2^k)]. Full jitter decorrelates a fleet of
   retrying clients — after a worker crash every router connection
   retries, and without jitter they would hammer the reborn worker in
   lockstep. Deterministic under a fixed seed so tests and replays are
   reproducible. *)

type t = {
  base_ms : float;
  rng : Rng.t;
  mutable attempt : int;
}

let cap_ms = 2_000.0

let create ?(base_ms = 25.0) ~seed () =
  if not (base_ms > 0.0 && base_ms <= cap_ms) then
    invalid_arg "Backoff.create: base_ms must be in (0, 2000]";
  { base_ms; rng = Rng.create ~seed; attempt = 0 }

let reset t = t.attempt <- 0

(* The uncapped envelope grows 2x per attempt; past the cap the draw
   range stops growing, so a long outage settles into uniform draws
   over [0, cap_ms]. *)
let ceiling_ms t =
  let doublings = min t.attempt 30 (* 2^30 * base already dwarfs any cap *) in
  Float.min cap_ms (t.base_ms *. Float.of_int (1 lsl doublings))

let next_delay_ms t =
  let d = Rng.float t.rng ~bound:(ceiling_ms t) in
  t.attempt <- t.attempt + 1;
  d

(* 50 ms slices, so a stop is observed promptly even at the 2 s
   default cap. *)
let sleep t ~stop =
  let delay = next_delay_ms t /. 1000.0 in
  let rec nap k =
    if k > 0 && not (stop ()) then begin
      Unix.sleepf 0.05;
      nap (k - 1)
    end
  in
  nap (max 1 (int_of_float (Float.ceil (delay /. 0.05))))

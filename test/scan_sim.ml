(* Cycle-accurate simulation of a wrapped digital core's test: the
   oracle for the closed-form test time.

   The scheduling layer trusts the closed form
   T(w) = (1 + max(si, so))·p + min(si, so). This module derives that
   number by simulating the scan protocol cycle by cycle (shift-in,
   capture, shift-out, with the shift-out of pattern i overlapped with
   the shift-in of pattern i+1), so the formula is a checked property
   of the protocol, not an article of faith. [simulate] is the full
   per-cycle trace for the design's pattern count: si shifts, then for
   every pattern a capture followed by max(si, so) overlapped shifts,
   ending with the drain of the last response; its length is the
   simulated test time. [simulated_cycles] counts it without building
   the trace, and [formula_cycles] is the test time [Design.run] returns
   for the design's core and width. *)

module Design = Msoc_wrapper.Design

(* What the wrapper does in one TAM clock cycle. *)
type event = Shift | Capture

(* Protocol: prime the wrapper by shifting in the first pattern
   (si cycles); then for each pattern capture once and shift — the
   response of pattern k drains while pattern k+1 streams in, so the
   shared shift phase lasts max(si, so) cycles, except after the last
   capture where only the response (so cycles) remains.

   Cycle count: si + p + (p-1)·max(si,so) + so
              = p·(1 + max(si,so)) + min(si,so)   since si+so = max+min
   — the published closed form. *)
let phases (d : Design.t) =
  let si = d.Design.scan_in and so = d.Design.scan_out in
  let p = d.Design.core.Msoc_itc02.Types.patterns in
  let per_pattern k = if k < p then max si so else so in
  (si, p, per_pattern)

let simulate d =
  let prologue, p, per_pattern = phases d in
  let shifts n = List.init n (fun _ -> Shift) in
  shifts prologue
  @ List.concat (List.init p (fun k -> Capture :: shifts (per_pattern (k + 1))))

let simulated_cycles d =
  let prologue, p, per_pattern = phases d in
  let rec total k acc = if k > p then acc else total (k + 1) (acc + 1 + per_pattern k) in
  total 1 prologue

let formula_cycles (d : Design.t) =
  Design.run (Design.kernel d.Design.core ~max_width:d.Design.width) ~width:d.Design.width

(* Human-readable recap: si/so, pattern count, simulated vs formula
   cycles. *)
let trace_summary d =
  Printf.sprintf
    "core %s: si=%d so=%d patterns=%d -> simulated %d cycles, formula %d"
    d.Design.core.Msoc_itc02.Types.name d.Design.scan_in d.Design.scan_out
    d.Design.core.Msoc_itc02.Types.patterns (simulated_cycles d)
    (formula_cycles d)

let[@inline] model_gain ~order ~fc f =
  1.0 /. Float.sqrt (1.0 +. Float.pow (f /. fc) (2.0 *. float_of_int order))

(* Sum of squared residuals in log-gain with the best overall gain
   factor eliminated in closed form (it is the mean log offset). The
   tones' frequencies and log gains come as arrays built once per fit;
   [logs] is scratch of the same length. The mean is a left-to-right
   sum divided by the count. *)
let[@inline] residual ~order ~freqs ~log_gains ~logs fc =
  let n = Array.length freqs in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    let l = log_gains.(i) -. Float.log (model_gain ~order ~fc freqs.(i)) in
    logs.(i) <- l;
    sum := !sum +. l
  done;
  let mean = !sum /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. ((logs.(i) -. mean) ** 2.0)
  done;
  !acc

let fit ?(order = 2) gains =
  if List.length gains < 2 then invalid_arg "Cutoff.fit: need at least two tones";
  if List.exists (fun (f, g) -> not (f > 0.0 && g > 0.0)) gains then
    invalid_arg "Cutoff.fit: non-positive frequency or gain";
  let freqs = List.map fst gains in
  let fmin = List.fold_left Float.min Float.infinity freqs in
  let fmax = List.fold_left Float.max 0.0 freqs in
  (* Search log-uniformly: fc could sit below, inside or above the
     tone grid (extrapolation is the point of the method). *)
  let lo = Float.log (fmin /. 20.0) and hi = Float.log (fmax *. 20.0) in
  let freqs = Array.of_list freqs in
  let log_gains = Array.of_list (List.map (fun (_, g) -> Float.log g) gains) in
  let logs = Array.make (Array.length freqs) 0.0 in
  let[@inline] objective logfc = residual ~order ~freqs ~log_gains ~logs (Float.exp logfc) in
  (* Coarse grid seed + golden refinement, since the residual can have
     shallow local minima when a tone sits in the stop-band noise. *)
  let steps = 200 in
  let best = ref lo and best_v = ref (objective lo) in
  for i = 1 to steps do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps) in
    let v = objective x in
    if v < !best_v then begin
      best := x;
      best_v := v
    end
  done;
  let span = (hi -. lo) /. float_of_int steps in
  (* Golden-section refinement over [best - span, best + span], 60
     steps. Each step keeps the better of the two inner points and
     evaluates one new one. The bracket, the points and their values
     live in local floats, so a step allocates nothing; a recursion
     over them would box all six at every step. *)
  let phi = (Float.sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref (!best -. span) and b = ref (!best +. span) in
  let x1 = ref (!b -. (phi *. (!b -. !a))) and x2 = ref (!a +. (phi *. (!b -. !a))) in
  let f1 = ref (objective !x1) and f2 = ref (objective !x2) in
  for _ = 1 to 60 do
    if !f1 < !f2 then begin
      b := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !b -. (phi *. (!b -. !a));
      f1 := objective !x1
    end
    else begin
      a := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !a +. (phi *. (!b -. !a));
      f2 := objective !x2
    end
  done;
  Float.exp ((!a +. !b) /. 2.0)

(* The input's tone amplitudes are read once, when [tones] is applied:
   a program fitting many outputs against one input keeps the
   amplitudes, not the input spectrum's buffers. *)
let from_spectra ?order ~input tones =
  (* A tone at or above Nyquist has already folded back into the first
     zone: its "gain" belongs to the alias, and fitting it produces a
     confidently wrong cut-off. Refuse instead. *)
  let nyquist = input.Spectrum.fs /. 2.0 in
  List.iter
    (fun f ->
      if f >= nyquist then
        invalid_arg
          (Printf.sprintf
             "Cutoff.from_spectra: tone %g Hz at or above Nyquist (%g Hz)" f
             nyquist))
    tones;
  let inputs =
    List.map
      (fun f ->
        let g_in = Spectrum.tone_amplitude input f in
        if g_in <= 0.0 then invalid_arg "Cutoff.from_spectra: tone absent from input";
        (f, g_in))
      tones
  in
  fun ~output ->
    fit ?order
      (List.map (fun (f, g_in) -> (f, Spectrum.tone_amplitude output f /. g_in)) inputs)

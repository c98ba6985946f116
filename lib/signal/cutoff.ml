let[@inline] model_gain ~order ~fc f =
  1.0 /. Float.sqrt (1.0 +. Float.pow (f /. fc) (2.0 *. float_of_int order))

(* Sum of squared residuals in log-gain with the best overall gain
   factor eliminated in closed form (it is the mean log offset). The
   tones' frequencies and log gains come as arrays built once per fit;
   [logs] is scratch of the same length. The mean is a left-to-right
   sum divided by the count. *)
let residual ~order ~freqs ~log_gains ~logs fc =
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

let golden_section ~f ~lo ~hi ~iterations =
  let phi = (Float.sqrt 5.0 -. 1.0) /. 2.0 in
  let rec go a b fa_x fb_x x1 x2 n =
    if n = 0 then (a +. b) /. 2.0
    else if fa_x < fb_x then
      let b = x2 and x2 = x1 in
      let x1 = b -. (phi *. (b -. a)) in
      go a b (f x1) fa_x x1 x2 (n - 1)
    else
      let a = x1 and x1 = x2 in
      let x2 = a +. (phi *. (b -. a)) in
      go a b fb_x (f x2) x1 x2 (n - 1)
  in
  let x1 = hi -. (phi *. (hi -. lo)) and x2 = lo +. (phi *. (hi -. lo)) in
  go lo hi (f x1) (f x2) x1 x2 iterations

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
  let objective logfc = residual ~order ~freqs ~log_gains ~logs (Float.exp logfc) in
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
  Float.exp (golden_section ~f:objective ~lo:(!best -. span) ~hi:(!best +. span) ~iterations:60)

let from_spectra ?order ~input ~output tones =
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
  let gains =
    List.map
      (fun f ->
        let g_in = Spectrum.tone_amplitude input f in
        let g_out = Spectrum.tone_amplitude output f in
        if g_in <= 0.0 then invalid_arg "Cutoff.from_spectra: tone absent from input";
        (f, g_out /. g_in))
      tones
  in
  fit ?order gains

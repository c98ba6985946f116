type test = {
  name : string;
  f_low_hz : float;
  f_high_hz : float;
  f_sample_hz : float;
  cycles : int;
  tam_width : int;
  resolution_bits : int;
}

type core = { label : string; name : string; tests : test list }

let test ~name ~f_low_hz ~f_high_hz ~f_sample_hz ~cycles ~tam_width ~resolution_bits =
  if f_low_hz < 0.0 || f_high_hz < f_low_hz then
    invalid_arg "Spec.test: need 0 <= f_low <= f_high";
  (* Single-tone tests may undersample (Table 2's 26 MHz gain test
     runs at fs = 26 MHz), so only reject bands beyond fs itself. *)
  if f_high_hz > f_sample_hz then
    invalid_arg "Spec.test: band edge above sampling frequency";
  if cycles <= 0 then invalid_arg "Spec.test: cycles must be positive";
  if tam_width <= 0 then invalid_arg "Spec.test: tam_width must be positive";
  if resolution_bits < 4 || resolution_bits > 16 then
    invalid_arg "Spec.test: resolution out of 4..16 bits";
  { name; f_low_hz; f_high_hz; f_sample_hz; cycles; tam_width; resolution_bits }

let core ~label ~name ~tests =
  if tests = [] then invalid_arg "Spec.core: empty test list";
  { label; name; tests }

let core_time c = Msoc_util.Numeric.sum_int (List.map (fun t -> t.cycles) c.tests)

let core_width c = Msoc_util.Numeric.max_int_list (List.map (fun t -> t.tam_width) c.tests)

type requirement = { bits : int; f_sample_max_hz : float; width : int }

let requirement c =
  let fold acc t =
    {
      bits = max acc.bits t.resolution_bits;
      f_sample_max_hz = Float.max acc.f_sample_max_hz t.f_sample_hz;
      width = max acc.width t.tam_width;
    }
  in
  List.fold_left fold { bits = 0; f_sample_max_hz = 0.0; width = 0 } c.tests

let merge_requirements a b =
  {
    bits = max a.bits b.bits;
    f_sample_max_hz = Float.max a.f_sample_max_hz b.f_sample_max_hz;
    width = max a.width b.width;
  }

type policy = { fast_hz : float; high_res_bits : int }

let default_policy = { fast_hz = 26.0e6; high_res_bits = 12 }

let compatible ?(policy = default_policy) a b =
  let ra = requirement a and rb = requirement b in
  let clash fast precise =
    fast.f_sample_max_hz >= policy.fast_hz && precise.bits >= policy.high_res_bits
  in
  not (clash ra rb || clash rb ra)

let same_tests a b =
  List.length a.tests = List.length b.tests
  && List.for_all2 (fun (x : test) (y : test) -> x = y) a.tests b.tests

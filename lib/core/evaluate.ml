module Spec = Msoc_analog.Spec
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Bounds = Msoc_analog.Bounds
module Job = Msoc_tam.Job
module Registry = Msoc_tam.Packer_registry
module Schedule = Msoc_tam.Schedule

(* Schedule memo: a packed schedule depends only on the job set —
   i.e. on the sharing combination (plus the per-[prepared] TAM width,
   packer variant and self-test setting) — never on the cost weights,
   so one cache entry serves every weight point and every optimizer
   that revisits the combination. Keyed on the canonical partition name
   ([Sharing.full_name] of the canonicalized groups). *)
type cache = {
  table : (string, Schedule.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type cache_stats = { hits : int; misses : int; entries : int }

type prepared = {
  problem : Problem.t;
  digital_jobs : Job.t list;
  reference_makespan : int;
  cache : cache;
  packer : Registry.packer;
}

(* Process-wide count of TAM-optimizer invocations ([Packer.pack]
   runs), maintained atomically so pool workers can bump it too.
   Tests and benches read the delta around a search to verify the
   cache really avoids repacking. *)
let packs = Atomic.make 0

let total_packs () = Atomic.get packs

(* One wrapper per group: its optional converter self-test runs first
   (Fig. 1's self-test mode), gating the group's core tests via a
   precedence edge. The self-test wrapper is sized for the group's
   merged requirement, exactly like the shared hardware it checks. *)
let self_test_job ~self_test ~group_index group =
  match (self_test : Problem.self_test_config option) with
  | None -> None
  | Some { hits_per_code } ->
    let requirement =
      match List.map Spec.requirement group with
      | [] -> assert false
      | r :: rest -> List.fold_left Spec.merge_requirements r rest
    in
    let bits = requirement.Spec.bits + (requirement.Spec.bits land 1) in
    let width = requirement.Spec.width in
    let cycles =
      Msoc_mixedsig.Bist.self_test_cycles ~bits ~tam_width:width ~hits_per_code ()
    in
    Some
      (Job.analog
         ~label:(Printf.sprintf "selftest:%d" group_index)
         ~width ~time:cycles ~group:group_index)

let analog_jobs ~self_test (groups : Spec.core list list) =
  List.concat
    (List.mapi
       (fun group_index group ->
         let self_test_job = self_test_job ~self_test ~group_index group in
         let gate job =
           match self_test_job with
           | None -> job
           | Some st -> Job.with_predecessors job [ st.Job.label ]
         in
         let core_tests =
           List.concat_map
             (fun (core : Spec.core) ->
               List.map
                 (fun (test : Spec.test) ->
                   gate
                     (Job.analog
                        ~label:(Printf.sprintf "%s:%s" core.Spec.label test.Spec.name)
                        ~width:test.Spec.tam_width ~time:test.Spec.cycles
                        ~group:group_index))
                 core.Spec.tests)
             group
         in
         match self_test_job with
         | None -> core_tests
         | Some st -> st :: core_tests)
       groups)

let jobs_for_groups prepared groups =
  prepared.digital_jobs
  @ analog_jobs ~self_test:prepared.problem.Problem.self_test groups

let combination_key (combination : Sharing.t) = Sharing.full_name combination

(* The one packing path, serial and on the pool's worker domains: the
   certified pack shares no mutable state but the atomic counter. *)
let pack_jobs p jobs =
  Atomic.incr packs;
  Registry.pack p.packer ~width:p.problem.Problem.tam_width jobs

(* Single-domain cache lookup; the parallel path in [evaluate_many]
   packs on workers but fills the table from the calling domain only,
   so the cache itself never needs locking. *)
let schedule_for p combination =
  let key = combination_key combination in
  match Hashtbl.find_opt p.cache.table key with
  | Some schedule ->
    p.cache.hits <- p.cache.hits + 1;
    schedule
  | None ->
    let schedule = pack_jobs p (jobs_for_groups p combination.Sharing.groups) in
    p.cache.misses <- p.cache.misses + 1;
    Hashtbl.replace p.cache.table key schedule;
    schedule

let prepare ?(packer = Registry.default) (problem : Problem.t) =
  let digital_jobs =
    List.map
      (Job.of_core ~max_width:problem.Problem.tam_width)
      problem.Problem.soc.Msoc_itc02.Types.cores
  in
  let cache = { table = Hashtbl.create 64; hits = 0; misses = 0 } in
  let provisional = { problem; digital_jobs; reference_makespan = 0; cache; packer } in
  let full = Sharing.full_sharing problem.Problem.analog_cores in
  (* Seeding through [schedule_for] leaves the full-sharing schedule
     in the cache: when full sharing is also a candidate combination
     (it usually is), the optimizers never repack the reference. *)
  let schedule = schedule_for provisional full in
  { provisional with reference_makespan = Schedule.makespan schedule }

let reweight p (problem : Problem.t) =
  if not (Problem.same_structure p.problem problem) then
    invalid_arg "Evaluate.reweight: problems differ beyond the cost weights";
  { p with problem }

let cache_stats p =
  {
    hits = p.cache.hits;
    misses = p.cache.misses;
    entries = Hashtbl.length p.cache.table;
  }

let problem p = p.problem

let reference_makespan p = p.reference_makespan

let digital_jobs p = p.digital_jobs

let jobs_for p (combination : Sharing.t) =
  jobs_for_groups p combination.Sharing.groups

let jobs_for_problem (problem : Problem.t) (combination : Sharing.t) =
  List.map
    (Job.of_core ~max_width:problem.Problem.tam_width)
    problem.Problem.soc.Msoc_itc02.Types.cores
  @ analog_jobs ~self_test:problem.Problem.self_test combination.Sharing.groups

type evaluation = {
  combination : Sharing.t;
  schedule : Schedule.t;
  makespan : int;
  c_t : float;
  c_a : float;
  cost : float;
}

let evaluate p combination =
  let schedule = schedule_for p combination in
  let makespan = Schedule.makespan schedule in
  (* Convention: an empty reference (a SOC with no jobs packs to
     makespan 0) prices C_T as 0 rather than raising or going NaN — a
     NaN here would silently poison every [<] pruning comparison in
     Cost_optimizer. See DESIGN.md §7. *)
  let c_t =
    Msoc_util.Numeric.percent_of_or ~default:0.0 (float_of_int makespan)
      (float_of_int p.reference_makespan)
  in
  let c_a = Area.cost_ca ~model:p.problem.Problem.area_model combination in
  let cost =
    (p.problem.Problem.weight_time *. c_t) +. (p.problem.Problem.weight_area *. c_a)
  in
  { combination; schedule; makespan; c_t; c_a; cost }

let evaluate_many ?pool p combinations =
  (match pool with
  | None -> ()
  | Some pool when Msoc_util.Pool.jobs pool <= 1 -> ()
  | Some pool ->
    (* Pack the schedules the cache is missing on the worker domains.
       Workers run [pack_jobs] only; the table and its counters are
       touched from this domain alone.
       [Pool.map] returns in input order and packing is deterministic,
       so the filled cache — and every evaluation below — is
       bit-identical to the serial path. *)
    let queued = Hashtbl.create 16 in
    let missing =
      List.filter
        (fun c ->
          let key = combination_key c in
          if Hashtbl.mem p.cache.table key || Hashtbl.mem queued key then false
          else begin
            Hashtbl.add queued key ();
            true
          end)
        combinations
    in
    let schedules =
      Msoc_util.Pool.map pool
        (fun c -> pack_jobs p (jobs_for_groups p c.Sharing.groups))
        missing
    in
    List.iter2
      (fun c schedule ->
        p.cache.misses <- p.cache.misses + 1;
        Hashtbl.replace p.cache.table (combination_key c) schedule)
      missing schedules);
  List.map (evaluate p) combinations

let preliminary_cost p combination =
  let analog_total =
    List.fold_left
      (fun acc c -> acc + Spec.core_time c)
      0 p.problem.Problem.analog_cores
  in
  let t_lb_norm =
    Msoc_util.Numeric.percent_of_or ~default:0.0
      (float_of_int (Bounds.lower_bound combination))
      (float_of_int analog_total)
  in
  let c_a = Area.cost_ca ~model:p.problem.Problem.area_model combination in
  (p.problem.Problem.weight_time *. t_lb_norm)
  +. (p.problem.Problem.weight_area *. c_a)

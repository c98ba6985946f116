(* Robustness and hardening tests: optimizer edge cases, the
   pack_optimized refinement, Monte-Carlo yield, the p22810s second
   benchmark, and randomized end-to-end planning. *)

module Types = Msoc_itc02.Types
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Spec = Msoc_analog.Spec
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan
module Yield = Msoc_mixedsig.Yield
module Bist = Msoc_mixedsig.Bist

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- planner edge cases --- *)

let test_plan_single_analog_core () =
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
      ~analog_cores:[ Catalog.core_c ] ~tam_width:16 ~weight_time:0.5 ()
  in
  let plan = Plan.run problem in
  checki "one candidate (no sharing)" 1 plan.Plan.considered;
  Alcotest.(check string) "no sharing" "none" (Sharing.short_name (Plan.sharing plan));
  checki "valid" 0
    (List.length (Schedule.check plan.Plan.best.Msoc_testplan.Evaluate.schedule))

let test_plan_incompatible_cores_fall_back () =
  (* A fast core and a precise core can never share; with only those
     two, no paper combination survives and the planner must fall back
     to no sharing rather than fail. *)
  let fast =
    Spec.core ~label:"F" ~name:"fast"
      ~tests:
        [
          Spec.test ~name:"t" ~f_low_hz:1.0e6 ~f_high_hz:1.0e6 ~f_sample_hz:100.0e6
            ~cycles:1_000 ~tam_width:2 ~resolution_bits:6;
        ]
  in
  let precise =
    Spec.core ~label:"P" ~name:"precise"
      ~tests:
        [
          Spec.test ~name:"t" ~f_low_hz:100.0 ~f_high_hz:100.0 ~f_sample_hz:10.0e3
            ~cycles:2_000 ~tam_width:1 ~resolution_bits:14;
        ]
  in
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ()) ~analog_cores:[ fast; precise ]
      ~tam_width:16 ~weight_time:0.5 ()
  in
  let plan = Plan.run problem in
  checki "no-sharing fallback" 1 plan.Plan.considered;
  checki "both cores scheduled" 2
    (plan.Plan.best.Msoc_testplan.Evaluate.schedule.Schedule.placements
    |> List.filter (fun (p : Schedule.placement) ->
           p.Schedule.job.Job.exclusion <> None)
    |> List.length)

let test_plan_weight_extremes () =
  List.iter
    (fun weight_time ->
      let plan =
        Plan.run (Fixtures.d281m ~weight_time ~tam_width:24 ())
      in
      checkb "finite cost" true (Float.is_finite plan.Plan.best.Msoc_testplan.Evaluate.cost))
    [ 0.0; 1.0 ]

(* --- pack_optimized --- *)

let jobs_with_awkward_rectangle () =
  [
    Fixtures.digital_job ~label:"slab" (Msoc_wrapper.Pareto.fixed ~width:6 ~time:900);
    Fixtures.digital_job ~label:"a" (Msoc_wrapper.Pareto.fixed ~width:3 ~time:500);
    Fixtures.digital_job ~label:"b" (Msoc_wrapper.Pareto.fixed ~width:3 ~time:500);
    Fixtures.digital_job ~label:"c" (Msoc_wrapper.Pareto.fixed ~width:2 ~time:450);
    Job.analog ~label:"x" ~width:1 ~time:700 ~group:0;
    Job.analog ~label:"y" ~width:1 ~time:600 ~group:0;
  ]

let test_pack_optimized_no_worse () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  List.iter
    (fun width ->
      let jobs = List.map (Job.of_core ~max_width:width) soc.Types.cores in
      let plain = Schedule.makespan (Packer.pack ~width jobs) in
      let better = Packer.pack_optimized ~width jobs in
      checkb "<= plain" true (Schedule.makespan better <= plain);
      checki "still valid" 0 (List.length (Schedule.check better)))
    [ 8; 16; 24 ]

let test_pack_optimized_awkward_instance () =
  let jobs = jobs_with_awkward_rectangle () in
  let plain = Schedule.makespan (Packer.pack ~width:8 jobs) in
  let optimized = Schedule.makespan (Packer.pack_optimized ~width:8 jobs) in
  checkb "no regression" true (optimized <= plain);
  checkb "respects LB" true (optimized >= Packer.lower_bound ~width:8 jobs)

let test_plan_polish_no_worse () =
  (* a final squeeze: pack_optimized over the winning combination's
     jobs *)
  let plan = Plan.run (Fixtures.d281m ~tam_width:24 ()) in
  let jobs = Msoc_testplan.Evaluate.jobs_for (Msoc_testplan.Evaluate.prepare plan.Plan.problem) (Plan.sharing plan) in
  let polished = Packer.pack_optimized ~width:plan.Plan.problem.Problem.tam_width jobs in
  checkb "polish never worse" true
    (Schedule.makespan polished <= Plan.makespan plan);
  checki "polished schedule valid" 0 (List.length (Schedule.check polished))

let test_pack_optimized_with_power () =
  let jobs =
    List.map (fun j -> Job.with_power j 3) (jobs_with_awkward_rectangle ())
  in
  let s = Packer.pack_optimized ~power_budget:9 ~width:8 jobs in
  checki "valid under budget" 0 (List.length (Schedule.check s));
  checkb "peak within budget" true (Schedule.peak_power s <= 9)

(* --- yield --- *)

let test_yield_ideal_is_one () =
  let r =
    Yield.estimate ~trials:20 ~die:(fun _seed -> true)
  in
  checkb "yield 1" true (r.Yield.yield = 1.0);
  checkb "ci upper 1" true (r.Yield.ci_high >= 0.99)

let test_yield_bist_acceptance () =
  (* Tight mismatch passes the BIST acceptance on every die; gross
     mismatch fails on some. *)
  let die sigma seed =
    let wrapper = Yield.wrapper_for_die ~dac_mismatch_sigma:sigma ~seed () in
    Bist.passes (Bist.loopback_linearity wrapper)
  in
  let tight = Yield.estimate ~trials:25 ~die:(die 0.002) in
  let gross = Yield.estimate ~trials:25 ~die:(die 0.12) in
  checkb
    (Printf.sprintf "tight %.2f > gross %.2f" tight.Yield.yield gross.Yield.yield)
    true
    (tight.Yield.yield > gross.Yield.yield);
  checkb "tight nearly full" true (tight.Yield.yield >= 0.9)

let test_wilson_interval () =
  let low, high = Yield.wilson_interval ~trials:100 ~passes:95 in
  checkb "contains p" true (low < 0.95 && 0.95 < high);
  checkb "sane bounds" true (low > 0.85 && high < 1.0);
  let low0, _ = Yield.wilson_interval ~trials:10 ~passes:0 in
  checkb "zero passes -> low 0" true (low0 = 0.0);
  match Yield.wilson_interval ~trials:0 ~passes:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trials 0 accepted"

let test_yield_deterministic () =
  let die seed =
    let l = Bist.loopback_linearity (Yield.wrapper_for_die ~dac_mismatch_sigma:0.05 ~seed ()) in
    l.Bist.max_code_error <= 2 && l.Bist.monotonic
  in
  let a = Yield.estimate ~trials:15 ~die and b = Yield.estimate ~trials:15 ~die in
  checkb "same result" true (a = b)

(* --- p22810s --- *)

let test_p22810s_shape () =
  let soc = Msoc_itc02.Synthetic.p22810s () in
  checki "28 cores" 28 (List.length soc.Types.cores);
  checkb "deterministic" true (soc = Msoc_itc02.Synthetic.p22810s ())

let test_p22810s_plans () =
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.p22810s ()) ~analog_cores:Catalog.all
      ~tam_width:32 ~weight_time:0.5 ()
  in
  let plan = Plan.run problem in
  checki "valid schedule" 0
    (List.length (Schedule.check plan.Plan.best.Msoc_testplan.Evaluate.schedule));
  (* p22810s is lighter than p93791s: at W=32 the analog chain can
     dominate, so the reference is at least the analog serial time *)
  checkb "reference >= analog chain" true
    (plan.Plan.reference_makespan >= Catalog.total_time)

(* --- randomized end-to-end --- *)

let qcheck_tests =
  let open QCheck in
  let instance =
    make
      (let open Gen in
       let* seed = int_range 1 5_000 in
       let* n_cores = int_range 2 10 in
       let* width = int_range 12 40 in
       let* analog_mask = int_range 1 30 in
       return (seed, n_cores, width, analog_mask))
  in
  [
    Test.make ~name:"random instances plan to valid schedules" ~count:25 instance
      (fun (seed, n_cores, width, analog_mask) ->
        let soc =
          Msoc_itc02.Synthetic.generate ~seed ~name:"rand"
            {
              Msoc_itc02.Synthetic.n_cores;
              target_area = 400_000 * n_cores;
              max_chains = 10;
              bottleneck = false;
            }
        in
        let analog_cores =
          List.filteri (fun i _ -> analog_mask land (1 lsl i) <> 0) Catalog.all
        in
        let analog_cores = if analog_cores = [] then [ Catalog.core_e ] else analog_cores in
        (* width must accommodate the widest analog test *)
        let width =
          max width
            (List.fold_left (fun acc c -> max acc (Spec.core_width c)) 1 analog_cores)
        in
        let problem =
          Problem.make ~soc ~analog_cores ~tam_width:width ~weight_time:0.5 ()
        in
        let plan = Plan.run problem in
        Schedule.check plan.Plan.best.Msoc_testplan.Evaluate.schedule = []
        && Plan.makespan plan
           >= Msoc_analog.Bounds.lower_bound (Plan.sharing plan));
    Test.make ~name:"heuristic never beats exhaustive" ~count:10 instance
      (fun (seed, n_cores, width, _) ->
        let soc =
          Msoc_itc02.Synthetic.generate ~seed ~name:"rand"
            {
              Msoc_itc02.Synthetic.n_cores;
              target_area = 300_000 * n_cores;
              max_chains = 8;
              bottleneck = false;
            }
        in
        let width = max width 10 in
        let problem =
          Problem.make ~soc ~analog_cores:[ Catalog.core_c; Catalog.core_d; Catalog.core_e ]
            ~tam_width:width ~weight_time:0.5 ()
        in
        let prepared = Msoc_testplan.Evaluate.prepare problem in
        let exh = Msoc_testplan.Exhaustive.run prepared in
        let heur = Msoc_testplan.Cost_optimizer.run prepared in
        heur.Msoc_testplan.Cost_optimizer.best.Msoc_testplan.Evaluate.cost
        >= exh.Msoc_testplan.Exhaustive.best.Msoc_testplan.Evaluate.cost -. 1e-9);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

(* --- CLI values --- *)

(* The built executable [tool] of bin/: msoc_plan or msoc_analyze. *)
let tool_exe tool =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" (tool ^ ".exe")))

(* Runs the built [tool] (default msoc_plan) with [args], MSOC_JOBS
   taken out of the environment and [env] added, its stdin on [stdin]
   and its stdout on [stdout] (default: both /dev/null); returns how
   it ended and the lines it wrote to stderr. *)
let run_tool ?(tool = "msoc_plan") ?(env = []) ?stdin ?stdout args =
  let exe = tool_exe tool in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"MSOC_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
      (Array.of_list env)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err_w)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args)) env
          (Option.value stdin ~default:null) (Option.value stdout ~default:null) err_w)
  in
  let ic = Unix.in_channel_of_descr err_r in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  let status = snd (Unix.waitpid [] pid) in
  (status, List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

(* [run_tool]'s exit code (-1 for a signal) and stderr lines *)
let run_cli ?tool ?env ?stdin ?stdout args =
  match run_tool ?tool ?env ?stdin ?stdout args with
  | Unix.WEXITED c, lines -> (c, lines)
  | (Unix.WSIGNALED _ | Unix.WSTOPPED _), lines -> (-1, lines)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* A bad option value is reported like any unparseable option (here
   the command's --width x: msoc_plan's subcommand, or msoc_analyze,
   which has none): exit 124, the error on one line naming the option
   (and the valid values), then the same usage hint, and never an
   uncaught exception. *)
let check_usage_errors ?(tool = "msoc_plan") cases =
  List.iter
    (fun (env, args, names) ->
      let what = String.concat " " (env @ (tool :: args)) in
      let command = if tool = "msoc_plan" then [ List.hd args ] else [] in
      let _, reference = run_cli ~tool (command @ [ "--width"; "x" ]) in
      let code, lines = run_cli ~tool ~env args in
      checki (what ^ ": exit code") 124 code;
      checkb (what ^ ": no uncaught exception") false
        (List.exists (fun l -> contains l "uncaught exception") lines);
      match (lines, reference) with
      | error :: hint, _ :: reference_hint ->
        checkb
          (what ^ ": one error line naming " ^ String.concat " " names)
          true
          (String.starts_with ~prefix:(tool ^ ": ") error
          && List.for_all (contains error) names);
        Alcotest.(check (list string)) (what ^ ": usage hint") reference_hint hint
      | _ -> Alcotest.failf "%s: no error message" what)
    cases

let test_cli_bad_jobs () =
  check_usage_errors
    [
      ([], [ "plan"; "--jobs"; "0" ], [ "'--jobs'" ]);
      ([], [ "plan"; "--jobs=-3" ], [ "'--jobs'" ]);
      ([ "MSOC_JOBS=bogus" ], [ "plan" ], [ "'MSOC_JOBS'" ]);
      ([ "MSOC_JOBS=0" ], [ "plan" ], [ "'MSOC_JOBS'" ]);
    ]

let test_cli_bad_names () =
  check_usage_errors
    [
      ([], [ "plan"; "--packer"; "nope" ],
        [ "'--packer'"; "best_fit, diagonal, constrained" ]);
      ([], [ "optimize"; "--strategy"; "nope" ],
        [ "'--strategy'"; "exhaustive, repr, bnb, anneal, portfolio" ]);
      ([], [ "plan"; "--analog"; "Z" ], [ "'--analog'"; "A, B, C, D, E" ]);
    ]

let test_cli_bad_counts () =
  check_usage_errors
    [
      ([], [ "plan"; "--width"; "0" ], [ "'--width'" ]);
      ([], [ "plan"; "--width=-1" ], [ "'--width'" ]);
      ([], [ "check"; "--width"; "0" ], [ "'--width'" ]);
      ([], [ "optimize"; "--width"; "0" ], [ "'--width'" ]);
      ([], [ "soc-info"; "--soc"; "../data/p93791s.soc"; "--width"; "0" ], [ "'--width'" ]);
      ([], [ "cosim"; "--width"; "0" ], [ "'--width'" ]);
      ([], [ "plan"; "--width"; "1025" ], [ "'--width'"; "1..1024" ]);
      ([], [ "soc-info"; "--width"; "1000000000" ], [ "'--width'"; "1..1024" ]);
      ([], [ "fleet"; "--workers"; "0"; "--tcp"; "7999" ], [ "'--workers'" ]);
    ]

let test_cli_bad_cosim_values () =
  check_usage_errors
    [
      ([], [ "cosim"; "--spec"; "bogus" ],
        [ "'--spec'"; "all, gain, fc, thd, iip3, offset, slew, dr" ]);
      ([], [ "cosim"; "--bits"; "5" ], [ "'--bits'"; "4..16" ]);
      ([], [ "cosim"; "--samples"; "8" ], [ "'--samples'"; "16..1048576" ]);
      ([], [ "cosim"; "--samples"; "400000000" ], [ "'--samples'"; "16..1048576" ]);
      ([], [ "cosim"; "--spec"; "thd"; "--samples"; "1048577" ],
        [ "'--samples'"; "16..1048576" ]);
      ([], [ "cosim"; "--trials=-1" ], [ "'--trials'" ]);
      ([], [ "cosim"; "--trials"; "100001" ], [ "'--trials'"; "0..100000" ]);
      ([], [ "cosim"; "--tolerance=-3" ], [ "'--tolerance'" ]);
      ([], [ "cosim"; "--tolerance=0" ], [ "'--tolerance'" ]);
      ([], [ "cosim"; "--system-clock=0"; "--calibrate" ], [ "'--system-clock'" ]);
      ([], [ "cosim"; "--spec"; "iip3"; "--samples"; "64" ], [ "'--samples'"; "65..1048576" ]);
      ([], [ "cosim"; "--spec"; "all"; "--samples"; "64" ], [ "'--samples'"; "65..1048576" ]);
      ([], [ "cosim"; "--spec"; "all"; "--samples"; "1048577" ],
        [ "'--samples'"; "65..1048576" ]);
    ]

let test_cli_bad_serve_values () =
  let replay args = "replay" :: "--socket" :: "unused.sock" :: args in
  check_usage_errors
    [
      ([], [ "serve"; "--cache-max-mb"; "0" ], [ "'--cache-max-mb'" ]);
      ([], replay [ "--count=-1" ], [ "'--count'"; "non-negative integer" ]);
      ([], replay [ "--repeat=-1" ], [ "'--repeat'"; "non-negative integer" ]);
      ([], replay [ "--clients"; "0" ], [ "'--clients'" ]);
      ([], replay [ "--rate"; "0" ], [ "'--rate'" ]);
      ([], replay [ "--mix"; "bogus" ], [ "'--mix'"; "plan, optimize" ]);
      ([], replay [ "--mix"; "" ], [ "'--mix'"; "plan, optimize" ]);
      ([], replay [ "--allow-shed"; "nope" ],
        [ "'--allow-shed'"; "overloaded, deadline_exceeded" ]);
      ([], replay [ "--json-out"; "/nonexistent/dir/r.json" ],
        [ "'--json-out'"; "existing directory" ]);
      ([], replay [ "--json-out"; Filename.get_temp_dir_name () ], [ "'--json-out'"; "file path" ]);
    ]

(* Planning values checked against the request range table. *)
let test_cli_bad_request_values () =
  check_usage_errors
    [
      ([], [ "plan"; "--weight-time"; "2" ], [ "'--weight-time'"; "0..1" ]);
      ([], [ "plan"; "--weight-time=-0.1" ], [ "'--weight-time'"; "0..1" ]);
      ([], [ "plan"; "--analog"; "," ], [ "'--analog'"; "A, B, C, D, E" ]);
      ([], [ "plan"; "--delta=-1" ], [ "'--delta'" ]);
      ([], [ "plan"; "--delta"; "nan" ], [ "'--delta'" ]);
      ([], [ "optimize"; "--max-evals"; "0" ], [ "'--max-evals'" ]);
      ([], [ "optimize"; "--budget-ms"; "0" ], [ "'--budget-ms'" ]);
      ([], [ "optimize"; "--budget-ms=-5" ], [ "'--budget-ms'" ]);
      ([], [ "optimize"; "--analog-scale"; "3" ], [ "'--analog-scale'"; "4..26" ]);
      ([], [ "optimize"; "--analog-scale"; "40" ], [ "'--analog-scale'"; "4..26" ]);
    ]

(* explore's and replay's sweep lists: each entry checked, none dropped *)
let test_cli_bad_sweeps () =
  let cases cmd =
    [
      ([], cmd @ [ "--widths"; "16,x" ], [ "'--widths'"; "'x'" ]);
      ([], cmd @ [ "--weights"; "0.5,y" ], [ "'--weights'"; "'y'" ]);
      ([], cmd @ [ "--widths"; "0,16" ], [ "'--widths'"; "'0'" ]);
      ([], cmd @ [ "--widths"; "16,1025" ], [ "'--widths'"; "'1025'"; "1..1024" ]);
      ([], cmd @ [ "--weights"; "2" ], [ "'--weights'"; "0..1" ]);
    ]
  in
  check_usage_errors
    (cases [ "explore" ]
    @ cases [ "replay"; "--socket"; "unused.sock" ]
    @ [ ([], [ "explore"; "--weights"; "0.5"; "--widths"; "16,32" ], [ "'--weights'"; "'--widths'" ]) ])

let test_cli_bad_tool_values () =
  check_usage_errors
    [
      ([], [ "bist"; "--bits"; "3" ], [ "'--bits'"; "4..16" ]);
      ([], [ "bist"; "--bits"; "18" ], [ "'--bits'"; "4..16" ]);
      ([], [ "bist"; "--trials"; "0" ], [ "'--trials'" ]);
      ([], [ "generate"; "--cores"; "1"; "--bottleneck"; "unused.soc" ], [ "'--cores'"; "'--bottleneck'" ]);
      ([], [ "generate"; "/nonexistent/dir/out.soc" ], [ "OUTPUT.soc"; "existing directory" ]);
      ([], [ "generate"; Filename.get_temp_dir_name () ], [ "OUTPUT.soc"; "file path" ]);
      ([], [ "generate"; "a b.soc" ], [ "OUTPUT.soc"; "without blanks" ]);
      ([], [ "serve"; "--memory-cache"; "0" ], [ "'--memory-cache'" ]);
      ([], [ "serve"; "--queue"; "0" ], [ "'--queue'" ]);
      ([], [ "fleet"; "--window"; "0"; "--tcp"; "7999" ], [ "'--window'" ]);
      ([], [ "fleet"; "--replicas"; "0"; "--tcp"; "7999" ], [ "'--replicas'" ]);
      ([], [ "replay"; "--socket"; "unused.sock"; "--window"; "0" ], [ "'--window'" ]);
    ]

(* A daemon nobody runs is a replay failure like any other: one line,
   exit 1, in both the closed and the open loop. *)
let test_cli_replay_unreachable () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-nobody-%d.sock" (Unix.getpid ()))
  in
  List.iter
    (fun extra ->
      let args = [ "replay"; "--socket"; socket; "--count"; "2" ] @ extra in
      let what = String.concat " " args in
      match run_cli args with
      | 1, [ line ] ->
        checkb (what ^ ": " ^ line) true (String.starts_with ~prefix:"replay: FAIL: " line)
      | code, lines ->
        Alcotest.failf "%s: exit %d, %d stderr lines" what code (List.length lines))
    [ []; [ "--rate"; "50"; "--clients"; "2" ] ]

(* [msoc_plan serve --socket socket] in the background, its output
   discarded, until [f pid] returns; then SIGTERM and reaped *)
let with_daemon socket f =
  let exe = tool_exe "msoc_plan" in
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process exe [| exe; "serve"; "--socket"; socket |] null null null)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let rec wait tries =
        if not (Sys.file_exists socket) then
          if tries = 0 then Alcotest.fail "daemon socket never appeared"
          else begin
            Thread.delay 0.05;
            wait (tries - 1)
          end
      in
      wait 200;
      f pid)

(* A daemon that drains in the middle of a replay leaves a report, not
   a dead client: exit 1, the "replayed" report, the count of requests
   that got no envelope, and in the JSON dropped >= 1 and nothing
   malformed, in the open and the closed loop. A replay whose stdout is
   a closed pipe still dies of SIGPIPE with nothing on stderr, as any
   command does. *)
let test_cli_replay_through_drain () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-drain-%d.sock" (Unix.getpid ()))
  in
  let json = Filename.temp_file "msoc-drain" ".json" in
  let out = Filename.temp_file "msoc-drain" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove json; Sys.remove out) @@ fun () ->
  List.iter
    (fun (n, extra) ->
      let args =
        [ "replay"; "--socket"; socket; "--count"; string_of_int n; "--verify"; "0";
          "--json-out"; json ] @ extra
      in
      let what = String.concat " " args in
      let code, lines =
        with_daemon socket (fun pid ->
            let term = Thread.create (fun () -> Thread.delay 1.0; Unix.kill pid Sys.sigterm) () in
            let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd; Thread.join term)
              (fun () -> run_cli ~stdout:fd args))
      in
      checki (what ^ ": exit code") 1 code;
      checkb (what ^ ": the report") true
        (String.starts_with ~prefix:"replayed " (In_channel.with_open_bin out In_channel.input_all));
      checkb (what ^ ": the dropped count") true
        (List.exists
           (fun l ->
             String.starts_with ~prefix:"FAIL: " l
             && contains l (Printf.sprintf " of %d requests got no response envelope" n))
           lines);
      let report = Msoc_testplan.Export.parse_exn (In_channel.with_open_bin json In_channel.input_all) in
      let count key =
        match Msoc_testplan.Export.member key report with
        | Some (Msoc_testplan.Export.Int k) -> k
        | _ -> Alcotest.failf "%s: no %s in the JSON report" what key
      in
      checkb (what ^ ": dropped >= 1") true (count "dropped" >= 1);
      checki (what ^ ": malformed") 0 (count "malformed"))
    [ (200, [ "--rate"; "20"; "--clients"; "2" ]); (5000, []) ];
  with_daemon socket (fun _ ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.close r;
      let status, lines =
        Fun.protect ~finally:(fun () -> Unix.close w) (fun () ->
            run_tool ~stdout:w [ "replay"; "--socket"; socket; "--count"; "20"; "--verify"; "0" ])
      in
      checkb "replay | true: killed by SIGPIPE" true (status = Unix.WSIGNALED Sys.sigpipe);
      Alcotest.(check (list string)) "replay | true: nothing on stderr" [] lines)

(* A listener that cannot be bound is one line and exit 1, never an
   uncaught exception: a socket in a missing directory for serve and
   for fleet (whose worker is stopped first), and a port in use. *)
let test_cli_unbindable () =
  let loopback_port fd =
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
  in
  let taken = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close taken) @@ fun () ->
  let port = loopback_port taken in
  Unix.listen taken 1;
  (* the fleet's worker takes a port nothing listens on *)
  let free = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let base_port = Fun.protect ~finally:(fun () -> Unix.close free) (fun () -> loopback_port free) in
  let missing = "/nonexistent/dir/x.sock" in
  List.iter
    (fun (args, endpoint) ->
      let what = String.concat " " args in
      let code, lines = run_cli args in
      let message =
        Printf.sprintf "msoc_plan %s: cannot listen on %s: " (List.hd args) endpoint
      in
      checki (what ^ ": exit code") 1 code;
      checkb (what ^ ": no uncaught exception") false
        (List.exists (fun l -> contains l "uncaught exception") lines);
      checkb (what ^ ": one line naming the endpoint") true
        (List.length (List.filter (fun l -> String.starts_with ~prefix:message l) lines) = 1))
    [
      ([ "serve"; "--socket"; missing ], missing);
      ([ "fleet"; "--workers"; "1"; "--base-port"; string_of_int base_port; "--socket"; missing ],
        missing);
      ([ "serve"; "--tcp"; string_of_int port ], Printf.sprintf "127.0.0.1:%d" port);
    ]

(* replay reads its --soc as every other --soc reader does: a file one
   byte past the cap is one error line naming it and exit 124, before
   any connect (nothing listens on the socket). *)
let test_cli_replay_soc_past_cap () =
  let soc = Filename.temp_file "msoc-big" ".soc" in
  Fun.protect ~finally:(fun () -> Sys.remove soc) @@ fun () ->
  Out_channel.with_open_bin soc (fun oc ->
      output_string oc (String.make (Msoc_itc02.Scan.max_bytes + 1) '\n'));
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-nobody-%d.sock" (Unix.getpid ()))
  in
  match run_cli [ "replay"; "--socket"; socket; "--soc"; soc ] with
  | 124, [ line ] -> checkb ("names the file: " ^ line) true (contains line soc)
  | code, lines -> Alcotest.failf "exit %d: %s" code (String.concat " | " lines)

(* Every CLI rejection above that has an envelope equivalent gets a
   bad_request from the service; where planning rejects the request,
   the CLI's one error line carries the service's message. *)
let test_cli_envelope_rejections () =
  let module Protocol = Msoc_serve.Protocol in
  let module Service = Msoc_serve.Service in
  let open Msoc_testplan.Export in
  let bad_soc = Filename.temp_file "msoc-bad" ".soc" in
  Fun.protect ~finally:(fun () -> Sys.remove bad_soc) @@ fun () ->
  Out_channel.with_open_bin bad_soc (fun oc -> output_string oc "SocName x\nModule bogus\n");
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let bnb = ("strategy", String "bnb") in
  List.iter
    (fun (args, op, params, planning) ->
      let what = String.concat " " args in
      let resp = Service.handle service (Protocol.request ~params:(Object params) ~id:"r" op) in
      checkb (what ^ ": bad_request") true (resp.Protocol.status = Protocol.Bad_request);
      let code, lines = run_cli args in
      checki (what ^ ": exit code") 124 code;
      checkb (what ^ ": no uncaught exception") false
        (List.exists (fun l -> contains l "uncaught exception") lines);
      match (planning, lines, resp.Protocol.error) with
      | false, _, _ -> ()
      | true, [ line ], Some m ->
        checkb (what ^ ": " ^ line ^ " carries " ^ m) true
          (String.starts_with ~prefix:"msoc_plan: " line && contains line m)
      | true, _, _ -> Alcotest.failf "%s: expected one error line" what)
    [
      ([ "plan"; "--weight-time"; "2" ], Protocol.Plan, [ ("weight_time", Int 2) ], false);
      ([ "plan"; "--weight-time=-0.1" ], Protocol.Plan, [ ("weight_time", Float (-0.1)) ], false);
      ([ "plan"; "--analog"; "," ], Protocol.Plan, [ ("analog", String ",") ], false);
      ([ "plan"; "--delta=-1" ], Protocol.Plan, [ ("delta", Int (-1)) ], false);
      ([ "optimize"; "--max-evals"; "0" ], Protocol.Optimize, [ ("max_evals", Int 0) ], false);
      ( [ "optimize"; "--strategy"; "bnb"; "--max-evals"; "0" ], Protocol.Optimize,
        [ bnb; ("max_evals", Int 0) ], false );
      ( [ "optimize"; "--strategy"; "bnb"; "--budget-ms"; "0" ], Protocol.Optimize,
        [ bnb; ("budget_ms", Int 0) ], false );
      ( [ "optimize"; "--strategy"; "bnb"; "--budget-ms=-5" ], Protocol.Optimize,
        [ bnb; ("budget_ms", Int (-5)) ], false );
      ( [ "explore"; "--widths"; "16,x" ], Protocol.Explore,
        [ ("widths", List [ Int 16; String "x" ]) ], false );
      ( [ "explore"; "--weights"; "0.5,y"; "--widths"; "32" ], Protocol.Explore,
        [ ("weights", List [ Float 0.5; String "y" ]); ("width", Int 32) ], false );
      ( [ "explore"; "--widths"; "0,16" ], Protocol.Explore,
        [ ("widths", List [ Int 0; Int 16 ]) ], false );
      ([ "plan"; "--width"; "1025" ], Protocol.Plan, [ ("width", Int 1025) ], false);
      ( [ "explore"; "--widths"; "16,1025" ], Protocol.Explore,
        [ ("widths", List [ Int 16; Int 1025 ]) ], false );
      ( [ "explore"; "--weights"; "2"; "--widths"; "32" ], Protocol.Explore,
        [ ("weights", List [ Int 2 ]); ("width", Int 32) ], false );
      ( [ "explore"; "--weights"; "0.5"; "--widths"; "16,32" ], Protocol.Explore,
        [ ("weights", List [ Float 0.5 ]); ("widths", List [ Int 16; Int 32 ]) ], false );
      ([ "plan"; "--width"; "1" ], Protocol.Plan, [ ("width", Int 1) ], true);
      ([ "optimize"; "--width"; "1" ], Protocol.Optimize, [ ("width", Int 1) ], true);
      ([ "check"; "--width"; "1" ], Protocol.Plan, [ ("width", Int 1) ], true);
      ( [ "cosim"; "--calibrate"; "--width"; "1" ], Protocol.Cosim,
        [ ("calibrate", Bool true); ("width", Int 1) ], true );
      ([ "plan"; "--soc"; bad_soc ], Protocol.Plan, [ ("soc_path", String bad_soc) ], true);
      ([ "soc-info"; "--soc"; bad_soc ], Protocol.Plan, [ ("soc_path", String bad_soc) ], true);
      ( [ "explore"; "--widths"; "1,2" ], Protocol.Explore,
        [ ("widths", List [ Int 1; Int 2 ]) ], true );
    ]

(* CLI = envelope: the CLI's JSON parses to the serve op's result. *)
let test_cli_equals_envelope () =
  let module Protocol = Msoc_serve.Protocol in
  let module Service = Msoc_serve.Service in
  let module Export = Msoc_testplan.Export in
  let cli_json args =
    let path = Filename.temp_file "msoc-cli" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
    let code, _ = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> run_cli ~stdout:fd args) in
    checki (String.concat " " args ^ ": exit code") 0 code;
    Export.parse_exn (In_channel.with_open_bin path In_channel.input_all)
  in
  let service = Service.create () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let op_result op params =
    let resp = Service.handle service (Protocol.request ~params:(Export.Object params) ~id:"e" op) in
    checkb "ok" true (resp.Protocol.status = Protocol.Success);
    resp.Protocol.result
  in
  let same what a b = Alcotest.(check string) what (Export.to_string a) (Export.to_string b) in
  List.iter
    (fun (width, packer) ->
      same
        (Printf.sprintf "plan W=%d %s" width packer)
        (op_result Protocol.Plan
           [ ("width", Export.Int width); ("packer", Export.String packer);
             ("analog", Export.String "A,C,E") ])
        (cli_json
           [ "plan"; "--json"; "--width"; string_of_int width; "--packer"; packer;
             "--analog"; "A,C,E" ]))
    [ (16, "best_fit"); (16, "diagonal"); (32, "best_fit"); (32, "diagonal") ];
  let cosim = op_result Protocol.Cosim [ ("spec", Export.String "fc") ] in
  match (Export.member "results" (cli_json [ "cosim"; "--spec"; "fc"; "--json" ]), Export.member "result" cosim) with
  | Some (Export.List [ cli ]), Some envelope -> same "cosim fc" envelope cli
  | _ -> Alcotest.fail "cosim: expected one result on each side"

(* The analyzer's file option: an unreadable allowlist. The ratchet's
   baseline options are gone, so naming one is an unknown option. The
   analyzer is msoc_analyze; msoc_plan has no analyze command. *)
let test_cli_bad_analyze_files () =
  check_usage_errors ~tool:"msoc_analyze"
    [
      ([], [ "--allowlist"; "nope.allow" ], [ "'--allowlist'" ]);
      ([], [ "--baseline"; "b.json" ], [ "'--baseline'" ]);
      ([], [ "--write-baseline"; "b.json" ], [ "'--write-baseline'" ]);
    ];
  check_usage_errors [ ([], [ "analyze" ], [ "unknown command 'analyze'" ]) ];
  (* an absolute --allowlist is read as given, not under the root: the
     tree's own file by its full path reads "no findings", like the
     default *)
  let out = Filename.temp_file "msoc_analyze" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let allowlist = Filename.concat (Filename.dirname (Sys.getcwd ())) "analysis.allow" in
      let code, lines =
        let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            run_cli ~tool:"msoc_analyze" ~stdout:fd [ "--root"; ".."; "--allowlist"; allowlist ])
      in
      let report = In_channel.with_open_bin out In_channel.input_all in
      checki "absolute --allowlist: exit" 0 code;
      Alcotest.(check (list string)) "absolute --allowlist: stderr" [] lines;
      checkb ("absolute --allowlist: " ^ report) true (contains report "no findings"))

(* A directory where an input file belongs is one usage error naming
   the option and the path, exit 124, before any work: every command's
   --soc (check's too, which linted a directory as E302 and exited 1)
   and msoc_analyze's --allowlist. *)
let test_cli_directory_inputs () =
  let dir = Filename.get_temp_dir_name () in
  let socket =
    Filename.concat dir (Printf.sprintf "msoc-nobody-%d.sock" (Unix.getpid ()))
  in
  check_usage_errors
    (List.map
       (fun args -> ([], args @ [ "--soc"; dir ], [ "'--soc'"; dir ]))
       [ [ "plan" ]; [ "check" ]; [ "soc-info" ]; [ "explore" ]; [ "optimize" ]; [ "cosim" ];
         [ "replay"; "--socket"; socket ] ]);
  check_usage_errors ~tool:"msoc_analyze" [ ([], [ "--allowlist"; dir ], [ "'--allowlist'"; dir ]) ]

(* The planner, the serve daemon and the fleet workers are one binary,
   msoc_plan, and none of them runs the analyzer. So it links neither
   Msoc_analysis nor the compiler-libs front end the analyzer parses
   with, which would triple the binary and the page faults of every
   start-up (DESIGN.md §11). The compilation units are read from the
   symbol table with nm (binutils, which ocamlopt links with);
   msoc_analyze is the control that the reading finds them where they
   are linked. *)
let analyzer_units tool =
  let compiler_libs =
    List.map (( ^ ) "caml")
      [ "Parse"; "Parser"; "Lexer"; "Location"; "Longident"; "Ast_helper"; "Warnings"; "Clflags" ]
  in
  let ic = Unix.open_process_args_in "nm" [| "nm"; "--defined-only"; tool_exe tool |] in
  let units =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ _; _; symbol ] ->
             let unit = List.hd (String.split_on_char '.' symbol) in
             if String.starts_with ~prefix:"camlMsoc_analysis" unit || List.mem unit compiler_libs
             then Some unit
             else None
           | _ -> None)
    |> List.sort_uniq compare
  in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> units
  | _ -> Alcotest.failf "nm %s failed" (tool_exe tool)

let test_link_set () =
  Alcotest.(check (list string)) "msoc_plan links no analyzer unit" [] (analyzer_units "msoc_plan");
  let linked = analyzer_units "msoc_analyze" in
  checkb "msoc_analyze links Msoc_analysis and compiler-libs' Parse" true
    (List.mem "camlMsoc_analysis__Engine" linked && List.mem "camlParse" linked)

let test_cli_bad_endpoints () =
  let both = [ "'--socket'"; "'--tcp'" ] in
  check_usage_errors
    [
      ([], [ "serve"; "--socket"; "unused.sock"; "--tcp"; "0" ], both);
      ([], [ "fleet" ], both);
      ([], [ "fleet"; "--socket"; "unused.sock"; "--tcp"; "7999" ], both);
      ([], [ "replay" ], both);
      ([], [ "replay"; "--socket"; "unused.sock"; "--tcp"; "7999" ], both);
      ([], [ "replay"; "--tcp"; "localhost:http" ], [ "'--tcp'" ]);
      ([], [ "replay"; "--tcp"; "999.1.1.1:80" ], [ "'--tcp'" ]);
    ]

(* [args]' exit code and stdout; [stdin], when given, arrives on a
   pipe. *)
let cli_output ?stdin args =
  let path = Filename.temp_file "msoc-cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let code =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match stdin with
    | None -> fst (run_cli ~stdout:fd args)
    | Some text ->
      (* a .soc fits the pipe's buffer: write it all, then start the reader *)
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect ~finally:(fun () -> Unix.close r) @@ fun () ->
      ignore (Unix.write_substring w text 0 (String.length text));
      Unix.close w;
      fst (run_cli ~stdin:r ~stdout:fd args)
  in
  (code, In_channel.with_open_bin path In_channel.input_all)

(* A .soc on a pipe loads like the file: the reader sizes nothing. *)
let test_cli_soc_on_stdin () =
  let soc = "../data/p93791s.soc" in
  let file = cli_output [ "plan"; "--soc"; soc; "--json" ] in
  let piped =
    cli_output ~stdin:(In_channel.with_open_bin soc In_channel.input_all)
      [ "plan"; "--soc"; "/dev/stdin"; "--json" ]
  in
  checki "file: exit code" 0 (fst file);
  checki "stdin: exit code" 0 (fst piped);
  Alcotest.(check string) "stdin prints the file's plan" (snd file) (snd piped)

(* One fault per file, each at a line the loader names: [check] (with
   and without --lint-only) reports an error there and exits 1, [plan]
   refuses with [f:LINE: ...] and exit 124, never a Types message. *)
let test_cli_soc_fixtures () =
  let good id = Printf.sprintf "Module %d Name m%d Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 1 : 7" id id in
  List.iter
    (fun (what, lines, line) ->
      let f = Filename.temp_file "msoc-fixture" ".soc" in
      Fun.protect ~finally:(fun () -> Sys.remove f) @@ fun () ->
      Out_channel.with_open_bin f (fun oc -> output_string oc (String.concat "\n" lines ^ "\n"));
      let at = Printf.sprintf "%s:%d: " f line in
      (match run_cli [ "plan"; "--soc"; f ] with
      | 124, [ message ] ->
        checkb (what ^ ": plan names the line: " ^ message) true
          (String.starts_with ~prefix:("msoc_plan: " ^ at) message
          && not (contains message "Types."))
      | code, lines ->
        Alcotest.failf "%s: plan exit %d, stderr %s" what code (String.concat " | " lines));
      List.iter
        (fun extra ->
          let code, out = cli_output ([ "check"; "--soc"; f ] @ extra) in
          checki (what ^ ": check exit code") 1 code;
          checkb (what ^ ": check errs at the line") true (contains out (at ^ "error [MSOC-E")))
        [ []; [ "--lint-only" ] ])
    [
      ("unknown Test line", [ "SocName s"; good 1; "Test 1 ScanUse 1 TamUse 1 Patterns 5" ], 3);
      ("bare Module line", [ "SocName s"; "Module"; good 1 ], 2);
      ("second SocName b c", [ "SocName s"; good 1; "SocName b c" ], 3);
      ("Patterns 0", [ "SocName s"; good 1; "Module 2 Name z Inputs 1 Outputs 1 Bidirs 0 Patterns 0" ], 3);
      ( "zero chain length",
        [ "SocName s"; "Module 1 Name m Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 2 : 4 0"; good 2 ],
        2 );
      ("repeated id", [ "SocName s"; good 1; good 2; good 1 ], 4);
      ("Module 0", [ "SocName s"; good 0 ], 2);
    ]

let suites =
  [
    ( "robustness.planner",
      [
        Alcotest.test_case "single analog core" `Quick test_plan_single_analog_core;
        Alcotest.test_case "incompatible cores fall back" `Quick
          test_plan_incompatible_cores_fall_back;
        Alcotest.test_case "weight extremes" `Quick test_plan_weight_extremes;
      ] );
    ( "robustness.pack_optimized",
      [
        Alcotest.test_case "no worse than pack" `Quick test_pack_optimized_no_worse;
        Alcotest.test_case "awkward instance" `Quick test_pack_optimized_awkward_instance;
        Alcotest.test_case "with power budget" `Quick test_pack_optimized_with_power;
        Alcotest.test_case "plan polish" `Quick test_plan_polish_no_worse;
      ] );
    ( "robustness.yield",
      [
        Alcotest.test_case "ideal is one" `Quick test_yield_ideal_is_one;
        Alcotest.test_case "bist acceptance" `Quick test_yield_bist_acceptance;
        Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
        Alcotest.test_case "deterministic" `Quick test_yield_deterministic;
      ] );
    ( "robustness.p22810s",
      [
        Alcotest.test_case "shape" `Quick test_p22810s_shape;
        Alcotest.test_case "plans" `Slow test_p22810s_plans;
      ] );
    ("robustness.properties", qcheck_tests);
    ( "robustness.cli",
      [
        Alcotest.test_case "bad --jobs values" `Quick test_cli_bad_jobs;
        Alcotest.test_case "bad --width and --workers values" `Quick test_cli_bad_counts;
        Alcotest.test_case "bad --packer, --strategy and --analog names" `Quick
          test_cli_bad_names;
        Alcotest.test_case "bad cosim values" `Quick test_cli_bad_cosim_values;
        Alcotest.test_case "bad analyze file options" `Quick
          test_cli_bad_analyze_files;
        Alcotest.test_case "a directory as an input file" `Quick test_cli_directory_inputs;
        Alcotest.test_case "msoc_plan links no analyzer" `Quick test_link_set;
        Alcotest.test_case "bad --socket/--tcp endpoints" `Quick
          test_cli_bad_endpoints;
        Alcotest.test_case "bad serve and replay values" `Quick
          test_cli_bad_serve_values;
        Alcotest.test_case "bad request values" `Quick test_cli_bad_request_values;
        Alcotest.test_case "bad sweep lists" `Quick test_cli_bad_sweeps;
        Alcotest.test_case "bad bist, generate, serve and fleet values" `Quick
          test_cli_bad_tool_values;
        Alcotest.test_case "replay against no daemon" `Quick test_cli_replay_unreachable;
        Alcotest.test_case "replay through a drain" `Quick test_cli_replay_through_drain;
        Alcotest.test_case "unbindable listeners" `Quick test_cli_unbindable;
        Alcotest.test_case "replay --soc past the cap" `Quick test_cli_replay_soc_past_cap;
        Alcotest.test_case "CLI and envelope agree on rejections" `Quick
          test_cli_envelope_rejections;
        Alcotest.test_case "CLI = envelope" `Quick test_cli_equals_envelope;
        Alcotest.test_case "a .soc on stdin" `Quick test_cli_soc_on_stdin;
        Alcotest.test_case ".soc faults: plan, check and lint name one line" `Quick
          test_cli_soc_fixtures;
      ] );
  ]

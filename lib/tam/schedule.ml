module Pareto = Msoc_wrapper.Pareto

type placement = {
  job : Job.t;
  start : int;
  width : int;
  time : int;
  wires : int list;
}

type t = {
  total_width : int;
  power_budget : int option;
  placements : placement list;
}

let finish p = p.start + p.time

let makespan t =
  List.fold_left (fun acc p -> max acc (finish p)) 0 t.placements

let wire_busy_cycles t =
  List.fold_left (fun acc p -> acc + (p.width * p.time)) 0 t.placements

let efficiency t =
  let span = makespan t in
  if span = 0 then 1.0
  else
    float_of_int (wire_busy_cycles t)
    /. (float_of_int t.total_width *. float_of_int span)

type violation =
  | Wire_conflict of { wire : int; first : string; second : string }
  | Capacity_exceeded of { at : int; busy : int; total_width : int }
  | Degenerate_rectangle of { label : string; start : int; width : int; time : int }
  | Wider_than_tam of { label : string; width : int; total_width : int }
  | Wire_out_of_range of { label : string; wire : int }
  | Wrong_wire_count of { label : string; expected : int; got : int }
  | Duplicate_wire of { label : string; wire : int }
  | Exclusion_overlap of { group : int; first : string; second : string }
  | Duplicate_job of { label : string; count : int }
  | Missing_job of { label : string }
  | Unexpected_job of { label : string }
  | Bad_operating_point of { label : string }
  | Precedence_violation of { label : string; predecessor : string }
  | Missing_predecessor of { label : string; predecessor : string }
  | Conflict_overlap of { first : string; second : string }
  | Power_exceeded of { at : int; total : int; budget : int }

let overlaps a b = a.start < finish b && b.start < finish a

let rec on_staircase ~width ~time = function
  | [] -> false
  | (pt : Pareto.point) :: rest ->
    (pt.width = width && pt.time = time) || on_staircase ~width ~time rest

(* One pass over the placements in start order. A wire or an exclusion
   group is held by the placement that has claimed it with the latest
   finish; a placement clashes when that finish is past its start.
   At equal starts, zero-time rectangles go first, so one overlaps
   exactly the rectangles that strictly contain its instant. Busy
   width and power are running sums: a placement is released before
   any start at or after its finish (intervals are half-open), and the
   peak power is the largest sum reached. Returns the violations and
   that peak. *)
let sweep ?expected t =
  let ps = Array.of_list t.placements in
  let n = Array.length ps in
  let violations = ref [] in
  let note v = violations := v :: !violations in
  let label i = ps.(i).job.Job.label in
  (* [index]: each label's first placement in list order, the one its
     successors and conflicts are checked against; [first.(i)]: that
     placement for [i]'s label; [count]: placements per label *)
  let index = Hashtbl.create n in
  let first = Array.make n 0 and count = Array.make n 0 in
  Array.iteri
    (fun i p ->
      let f =
        match Hashtbl.find index p.job.Job.label with
        | f -> f
        | exception Not_found ->
          Hashtbl.add index p.job.Job.label i;
          i
      in
      first.(i) <- f;
      count.(f) <- count.(f) + 1)
    ps;
  (* The job whose facts each placement is checked against: the
     expected one with its label, else the placement's own record. *)
  let jobs = Array.map (fun p -> p.job) ps in
  (match expected with
  | None -> ()
  | Some expected ->
    let wanted = Array.make n false in
    List.iter
      (fun (j : Job.t) ->
        match Hashtbl.find index j.Job.label with
        | f ->
          wanted.(f) <- true;
          jobs.(f) <- j;
          if count.(f) > 1 then note (Duplicate_job { label = j.Job.label; count = count.(f) })
        | exception Not_found -> note (Missing_job { label = j.Job.label }))
      expected;
    Array.iteri
      (fun i f ->
        if wanted.(f) then jobs.(i) <- jobs.(f)
        else note (Unexpected_job { label = label i }))
      first);
  let by_start = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      if ps.(a).start <> ps.(b).start then Int.compare ps.(a).start ps.(b).start
      else Bool.compare (ps.(a).time > 0) (ps.(b).time > 0))
    by_start;
  let by_finish = Array.copy by_start in
  Array.stable_sort (fun a b -> Int.compare (finish ps.(a)) (finish ps.(b))) by_finish;
  let total_width = t.total_width in
  let wire_owner = Array.make (max 0 total_width) (-1) in
  let listed_by = Array.make (max 0 total_width) (-1) in
  let group_owner = Array.make n (-1) in
  let group_slot = Hashtbl.create 8 in
  let slot g =
    match Hashtbl.find group_slot g with
    | s -> s
    | exception Not_found ->
      let s = Hashtbl.length group_slot in
      Hashtbl.add group_slot g s;
      s
  in
  (* [i] claims [owner.(k)]; returns the earlier holder still running
     at [i]'s start, or -1 *)
  let claim owner k i =
    let q = owner.(k) in
    if q < 0 || finish ps.(i) > finish ps.(q) then owner.(k) <- i;
    if q >= 0 && finish ps.(q) > ps.(i).start then q else -1
  in
  let clashed = ref false in
  let rec claim_wires i listed = function
    | [] -> listed
    | w :: rest ->
      (if w < 0 || w >= total_width then
         note (Wire_out_of_range { label = label i; wire = w })
       else if listed_by.(w) = i then
         (* a repeated wire is malformed, never a clash with itself *)
         note (Duplicate_wire { label = label i; wire = w })
       else begin
         listed_by.(w) <- i;
         let q = claim wire_owner w i in
         if q >= 0 then begin
           if not !clashed then
             note (Wire_conflict { wire = w; first = label q; second = label i });
           clashed := true
         end
       end);
      claim_wires i (listed + 1) rest
  in
  let rec check_predecessors i = function
    | [] -> ()
    | pred :: rest ->
      (match Hashtbl.find index pred with
      | q ->
        if finish ps.(q) > ps.(i).start then
          note (Precedence_violation { label = label i; predecessor = pred })
      | exception Not_found -> note (Missing_predecessor { label = label i; predecessor = pred }));
      check_predecessors i rest
  in
  let rec check_conflicts i = function
    | [] -> ()
    | c :: rest ->
      (match Hashtbl.find index c with
      | q ->
        if q <> i && overlaps ps.(i) ps.(q) then
          note (Conflict_overlap { first = c; second = label i })
      | exception Not_found -> ());
      check_conflicts i rest
  in
  let released = ref 0 and busy = ref 0 and power = ref 0 and peak = ref 0 in
  let over_width = ref false and over_budget = ref false in
  for k = 0 to n - 1 do
    let i = by_start.(k) in
    let p = ps.(i) and job = jobs.(i) in
    let l = label i in
    if p.width <= 0 || p.time <= 0 || p.start < 0 then
      note (Degenerate_rectangle { label = l; start = p.start; width = p.width; time = p.time });
    if p.width > total_width then
      note (Wider_than_tam { label = l; width = p.width; total_width });
    clashed := false;
    let listed = claim_wires i 0 p.wires in
    if listed <> p.width then
      note (Wrong_wire_count { label = l; expected = p.width; got = listed });
    (match job.Job.exclusion with
    | Some g ->
      let q = claim group_owner (slot g) i in
      if q >= 0 then note (Exclusion_overlap { group = g; first = label q; second = l })
    | None -> ());
    if not (on_staircase ~width:p.width ~time:p.time (Pareto.points job.Job.staircase))
    then note (Bad_operating_point { label = l });
    check_predecessors i job.Job.predecessors;
    check_conflicts i job.Job.conflicts;
    while !released < n && finish ps.(by_finish.(!released)) <= p.start do
      let q = by_finish.(!released) in
      if ps.(q).time > 0 then begin
        busy := !busy - ps.(q).width;
        power := !power - jobs.(q).Job.power
      end;
      incr released
    done;
    if p.time > 0 then begin
      busy := !busy + p.width;
      power := !power + job.Job.power;
      if p.width <> 0 && !busy > total_width && not !over_width then begin
        over_width := true;
        note (Capacity_exceeded { at = p.start; busy = !busy; total_width })
      end;
      if job.Job.power <> 0 then begin
        peak := max !peak !power;
        match t.power_budget with
        | Some budget when !power > budget && not !over_budget ->
          over_budget := true;
          note (Power_exceeded { at = p.start; total = !power; budget })
        | Some _ | None -> ()
      end
    end
  done;
  (List.rev !violations, !peak)

let check ?expected t = fst (sweep ?expected t)

let peak_power t = snd (sweep t)

let pp_violation ppf = function
  | Wire_conflict { wire; first; second } ->
    Format.fprintf ppf "wire %d double-booked by %s and %s" wire first second
  | Capacity_exceeded { at; busy; total_width } ->
    Format.fprintf ppf "%d wires busy at cycle %d on a %d-wire TAM" busy at total_width
  | Degenerate_rectangle { label; start; width; time } ->
    Format.fprintf ppf "%s occupies a degenerate rectangle (start %d, width %d, time %d)"
      label start width time
  | Wider_than_tam { label; width; total_width } ->
    Format.fprintf ppf "%s is %d wires wide on a %d-wire TAM" label width total_width
  | Wire_out_of_range { label; wire } ->
    Format.fprintf ppf "%s uses out-of-range wire %d" label wire
  | Wrong_wire_count { label; expected; got } ->
    Format.fprintf ppf "%s has %d wires, expected %d" label got expected
  | Duplicate_wire { label; wire } ->
    Format.fprintf ppf "%s lists wire %d twice" label wire
  | Exclusion_overlap { group; first; second } ->
    Format.fprintf ppf "exclusion group %d violated by %s and %s" group first second
  | Duplicate_job { label; count } ->
    Format.fprintf ppf "%s is scheduled %d times" label count
  | Missing_job { label } -> Format.fprintf ppf "%s is never scheduled" label
  | Unexpected_job { label } ->
    Format.fprintf ppf "%s is not in the expected job set" label
  | Bad_operating_point { label } ->
    Format.fprintf ppf "%s scheduled off its Pareto staircase" label
  | Precedence_violation { label; predecessor } ->
    Format.fprintf ppf "%s starts before its predecessor %s finishes" label predecessor
  | Missing_predecessor { label; predecessor } ->
    Format.fprintf ppf "%s depends on unscheduled job %s" label predecessor
  | Conflict_overlap { first; second } ->
    Format.fprintf ppf "conflicting jobs %s and %s overlap" first second
  | Power_exceeded { at; total; budget } ->
    Format.fprintf ppf "power %d exceeds budget %d at cycle %d" total budget at

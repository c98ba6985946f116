(* In-memory spans around the benchmark's own calls into each layer.

   A span is named [layer.call] after the library it enters. Spans nest
   (the innermost open span is the parent) and carry the id of the op
   they belong to; every op runs inside one root span named ["op"].
   Nothing is written while a run measures: the spans are kept in
   memory and rendered at the end, as Chrome trace-event JSON (which
   Perfetto opens offline) and as a per-layer table. With tracing off,
   [span] is a plain call. *)

module Export = Msoc_testplan.Export

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 = top level *)
  op : int;
  start_s : float;
  stop_s : float;
  minor_words : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_op = ref 0

let reset () =
  spans := [];
  next_id := 0;
  open_spans := [];
  current_op := 0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let w0 = Gc.minor_words () in
    let t0 = Measure.now () in
    let close () =
      let t1 = Measure.now () in
      open_spans := List.tl !open_spans;
      spans :=
        {
          id;
          name;
          parent;
          op = !current_op;
          start_s = t0;
          stop_s = t1;
          minor_words = Gc.minor_words () -. w0;
        }
        :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Run [f] as op [op]. Its spans carry the op id, and so do the probes
   that run beside it afterwards (top-level spans outside any op). *)
let op op f =
  current_op := op;
  span "op" f

(* --- summaries --- *)

let all () = List.rev !spans

let duration s = s.stop_s -. s.start_s

let total_ms name =
  1e3
  *. List.fold_left
       (fun acc s -> if s.name = name then acc +. duration s else acc)
       0.0 !spans

(* Mean time of the spans named [name] per op ([ops] ops ran). *)
let per_op_ms name ~ops = Measure.per ops (total_ms name)

type row = {
  name : string;
  calls : int;
  total_ms : float;
  self_ms : float;
  in_op : bool;  (* false for probes placed beside the op *)
  minor_mw : float;
}

(* Per span name: calls, total and self time (span time minus the part
   its child spans cover), and whether it ran inside ops. *)
let rows () =
  let children = Hashtbl.create 256 in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (s : span) ->
      Hashtbl.replace by_id s.id s;
      Hashtbl.replace children s.parent
        (duration s
        +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  let rec inside_op (s : span) =
    s.name = "op"
    ||
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> inside_op p
    | None -> false
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      if s.name <> "op" then begin
        let key = (s.name, inside_op s) in
        let calls, total, self, words =
          Option.value (Hashtbl.find_opt table key) ~default:(0, 0.0, 0.0, 0.0)
        in
        let child = Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
        Hashtbl.replace table key
          ( calls + 1,
            total +. duration s,
            self +. (duration s -. child),
            words +. s.minor_words )
      end)
    !spans;
  Hashtbl.fold
    (fun (name, in_op) (calls, total, self, words) acc ->
      {
        name;
        calls;
        total_ms = 1e3 *. total;
        self_ms = 1e3 *. self;
        in_op;
        minor_mw = words /. 1e6;
      }
      :: acc)
    table []
  |> List.sort (fun a b -> compare (not a.in_op, -.a.self_ms) (not b.in_op, -.b.self_ms))

let op_total_ms () = total_ms "op"

(* Share of op time that named layer spans cover. *)
let coverage_pct () =
  let ops = op_total_ms () in
  let covered =
    List.fold_left
      (fun acc r -> if r.in_op then acc +. r.self_ms else acc)
      0.0 (rows ())
  in
  100.0 *. Measure.ratio covered ops

let print_table ~workload =
  let ops = op_total_ms () in
  let rows = rows () in
  Printf.printf "layer table (%s): %d ops, op time %.1f ms\n" workload
    (List.length (List.filter (fun (s : span) -> s.name = "op") !spans))
    ops;
  Printf.printf "  %-10s %-22s %-7s %6s %11s %11s %7s %9s\n" "layer" "span" "where"
    "calls" "total_ms" "self_ms" "share%" "minor_Mw";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %-22s %-7s %6d %11.2f %11.2f %7s %9.3f\n" (layer r.name)
        r.name
        (if r.in_op then "in-op" else "beside")
        r.calls r.total_ms r.self_ms
        (if r.in_op then Printf.sprintf "%.1f" (100.0 *. Measure.ratio r.self_ms ops)
         else "-")
        r.minor_mw)
    rows;
  Printf.printf "  named layers cover %.1f%% of op time\n" (coverage_pct ())

(* Chrome trace-event JSON: one complete ("X") event per span, one track
   per op, timestamps in microseconds from the first span. *)
let write_chrome path =
  let all = all () in
  let origin =
    List.fold_left (fun acc (s : span) -> Float.min acc s.start_s) Float.infinity all
  in
  let event (s : span) =
    Export.Object
      [
        ("name", Export.String s.name);
        ("cat", Export.String (layer s.name));
        ("ph", Export.String "X");
        ("ts", Export.Float (1e6 *. (s.start_s -. origin)));
        ("dur", Export.Float (1e6 *. duration s));
        ("pid", Export.Int 1);
        ("tid", Export.Int s.op);
        ( "args",
          Export.Object
            [
              ("op", Export.Int s.op);
              ("id", Export.Int s.id);
              ("parent", Export.Int s.parent);
              ("minor_words", Export.Float s.minor_words);
            ] );
      ]
  in
  let json =
    Export.Object
      [
        ("traceEvents", Export.List (List.map event all));
        ("displayTimeUnit", Export.String "ms");
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Export.to_string json);
      output_char oc '\n')

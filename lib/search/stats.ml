module Export = Msoc_testplan.Export

type trace_point = { at_eval : int; cost : float; sharing : string }

type t = {
  evaluations : int;
  considered : int;
  nodes_expanded : int;
  nodes_pruned : int;
  dedup_skips : int;
  moves : int;
  accepted_moves : int;
  cache_hits : int;
  cache_misses : int;
  wall_ms : float;
  incumbent_trace : trace_point list;
}

let zero =
  {
    evaluations = 0;
    considered = 0;
    nodes_expanded = 0;
    nodes_pruned = 0;
    dedup_skips = 0;
    moves = 0;
    accepted_moves = 0;
    cache_hits = 0;
    cache_misses = 0;
    wall_ms = 0.0;
    incumbent_trace = [];
  }

let merge stats =
  List.fold_left
    (fun acc s ->
      {
        evaluations = acc.evaluations + s.evaluations;
        considered = acc.considered + s.considered;
        nodes_expanded = acc.nodes_expanded + s.nodes_expanded;
        nodes_pruned = acc.nodes_pruned + s.nodes_pruned;
        dedup_skips = acc.dedup_skips + s.dedup_skips;
        moves = acc.moves + s.moves;
        accepted_moves = acc.accepted_moves + s.accepted_moves;
        cache_hits = acc.cache_hits + s.cache_hits;
        cache_misses = acc.cache_misses + s.cache_misses;
        wall_ms = Float.max acc.wall_ms s.wall_ms;
        incumbent_trace = [];
      })
    zero stats

let trace_point_json { at_eval; cost; sharing } =
  Export.Object
    [
      ("at_eval", Export.Int at_eval);
      ("cost", Export.Float cost);
      ("sharing", Export.String sharing);
    ]

let to_json t =
  Export.Object
    [
      ("evaluations", Export.Int t.evaluations);
      ("considered", Export.Int t.considered);
      ("nodes_expanded", Export.Int t.nodes_expanded);
      ("nodes_pruned", Export.Int t.nodes_pruned);
      ("dedup_skips", Export.Int t.dedup_skips);
      ("moves", Export.Int t.moves);
      ("accepted_moves", Export.Int t.accepted_moves);
      ("cache_hits", Export.Int t.cache_hits);
      ("cache_misses", Export.Int t.cache_misses);
      ("wall_ms", Export.Float t.wall_ms);
      ("incumbent_trace", Export.List (List.map trace_point_json t.incumbent_trace));
    ]

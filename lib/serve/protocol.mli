(** The serve wire protocol: NDJSON request/response envelopes.

    One JSON object per line, both directions, over either transport
    (stdio batch mode or the Unix-socket daemon). Requests carry a
    client-chosen [id] echoed verbatim in the response, a schema
    version ([v], currently {!version}), an operation name and an
    operation-specific [params] object; responses carry a [status],
    the [result] on success and a human-readable [error] otherwise.

    Example exchange:
    {v
    -> {"v":1,"id":"r1","op":"plan","params":{"width":32,"weight_time":0.5}}
    <- {"v":1,"id":"r1","status":"ok","cached":"memory","elapsed_ms":0.2,"result":{...}}
    v}

    Params, all optional (defaults in parentheses), decoded by
    {!Request.of_params}: every op but [stats] and [shutdown] takes
    [soc_text] or [soc_path] (p93791s), [analog] labels (A-E), [width]
    (32) and [weight_time] (0.5); [plan] and [explore] [search]
    ([heuristic]), [delta] (0) and [packer] ([best_fit], [diagonal] or
    [constrained]); [optimize] [delta], [packer], [strategy], [seed]
    (1), [max_evals] and [budget_ms]; [explore] [widths] or [weights];
    [cosim] [spec] (fc), [trials] (0), [seed] (42), [bits] (8),
    [samples] (4551), [tolerance_pct], [calibrate] and
    [system_clock_hz] (78e6). A value of the wrong type or out of range
    is a [bad_request] naming the param, before anything is computed.
    A non-default packer's plans are re-verified through [Msoc_check]
    before they are served; a [cosim] result caches like a plan.

    Malformed lines never kill a connection: they produce a
    [bad_request] response under the line's string [id], or an empty
    [id] when it has none. *)

val version : int
(** Envelope schema version, stamped as [v] on both directions. Both
    readers reject any other value, so a router fronting workers built
    at a different version surfaces the skew as a structured error
    instead of silently mixing schemas. *)

type op = Plan | Explore | Optimize | Cosim | Stats | Shutdown

val op_name : op -> string

val op_of_name : string -> op option

type request = {
  id : string;  (** client-chosen, echoed in the response *)
  op : op;
  deadline_ms : float option;
      (** per-request compute budget, measured from admission *)
  params : Msoc_testplan.Export.json;  (** operation arguments; [Object] *)
}

val request : ?deadline_ms:float -> ?params:Msoc_testplan.Export.json ->
  id:string -> op -> request

val request_json : request -> Msoc_testplan.Export.json

val request_to_line : request -> string
(** Compact, newline-free — ready for [output_string] + ['\n']. *)

val request_of_line : string -> (request, string * string) result
(** [Error (id, message)] for a line that is not a valid envelope:
    [id] is the line's own [id] when the line is a JSON object whose
    [id] is a string, [""] otherwise. *)

type status =
  | Success  (** ["ok"] *)
  | Bad_request
      (** unparseable envelope, unknown op/params, or an infeasible
          problem — retrying identically will fail identically *)
  | Server_error  (** unexpected exception; retrying may succeed *)
  | Overloaded  (** bounded queue or in-flight window full: shed load,
          retry later *)
  | Deadline_exceeded  (** the [deadline_ms] budget elapsed *)
  | Shutting_down  (** server draining; no new work admitted *)
  | Unavailable
      (** no worker reachable after retries (fleet router); the
          request was never computed — retry later *)

val statuses : status list
(** All seven, in declaration order. *)

val status_name : status -> string

val status_of_name : string -> status option

type response = {
  id : string;
  status : status;
  worker : string option;
      (** id of the worker that produced the response (["w0"], ...;
          the router answers as ["router"]), so multi-process fleets
          can attribute latency and routing per envelope *)
  cached : string option;  (** ["memory"] or ["disk"] on a cache hit *)
  elapsed_ms : float option;
  result : Msoc_testplan.Export.json;  (** [Null] unless [Success] *)
  error : string option;
}

val ok :
  ?worker:string -> ?cached:string -> id:string ->
  Msoc_testplan.Export.json -> response
(** A [Success] envelope; [elapsed_ms] is [None] until the service
    stamps it. *)

val reject : ?worker:string -> id:string -> status -> string -> response
(** @raise Invalid_argument when called with [Success]. *)

val response_to_line : response -> string

val response_of_line : string -> (response, string) result

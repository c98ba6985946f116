(** Registry of stable diagnostic codes.

    Codes are part of the tool's contract: scripts grep for them and
    the mutation tests assert them, so once published a code keeps its
    meaning forever (retired codes are never reused). Numbering:
    E1xx/W1xx schedule checks, E2xx/W2xx cost cross-checks,
    E3xx/W3xx [.soc] input lint, S1xx-S6xx source-level static
    analysis ({!Msoc_analysis}: S1xx concurrency, S2xx exception
    safety, S3xx API hygiene, S4xx allowlist/coverage meta, S5xx
    semantic AST-level checks, S6xx interprocedural resource-lifecycle
    and protocol-state checks). The tables in DESIGN.md §8, §11, §13
    and §16 are generated from {!all}. *)

(* schedule checks *)

val e101 : string  (** TAM wire double-booked by two overlapping tests *)

val e102 : string  (** busy width exceeds the TAM width at some cycle *)

val e103 : string  (** degenerate rectangle: non-positive width/time or negative start *)

val e104 : string  (** rectangle wider than the TAM *)

val e105 : string  (** malformed wire assignment (count/range/duplicates) *)

val e106 : string  (** tests sharing one analog wrapper overlap in time *)

val e107 : string  (** a test is scheduled more than once *)

val e108 : string  (** an expected test is missing from the schedule *)

val e109 : string  (** a scheduled test is not in the expected job set *)

val e110 : string  (** operating point off the job's Pareto staircase *)

val e111 : string  (** a test starts before its predecessor finishes *)

val e112 : string  (** reported makespan differs from the recomputed one *)

val e113 : string  (** declared-conflict jobs overlap in time *)

val e114 : string  (** instantaneous power exceeds the budget *)

val w101 : string  (** schedule has no placements *)

(* cost cross-checks *)

val e201 : string  (** C_A diverges from the Equation-1 recomputation *)

val e202 : string  (** C_T diverges from the makespan normalization *)

val e203 : string  (** total cost is not the weighted C_T/C_A sum *)

val e204 : string  (** reported makespan differs from the schedule's *)

val e205 : string  (** sharing combination does not partition the analog cores *)

val w201 : string  (** zero reference makespan: C_T priced as 0 by convention *)

(* .soc input lint *)

val e301 : string  (** duplicate core id *)

val e302 : string
(** malformed token or field value, including a line no directive takes
    (MSOC-W301, "unknown directive (skipped)", is retired: the loader
    refuses such a line, so lint reports it here) *)

val e303 : string  (** missing required Module field *)

val e304 : string  (** ScanChains count does not match the lengths given *)

val e305 : string  (** missing SocName directive *)

val e306 : string  (** non-positive pattern count *)

val e307 : string  (** non-positive scan-chain length *)

val e308 : string  (** duplicate core name (test labels would collide) *)

val e309 : string  (** core carries no test data (zero-length staircase) *)

val w302 : string  (** SocName redeclared *)

val w303 : string  (** SOC declares no cores *)

(* source-level static analysis (Msoc_analysis) *)

val s101 : string
(** module-level mutable state ([ref]/[Hashtbl.create]/[Buffer.create]/
    [Queue.create] bound at structure level) in a library module, with
    no [Atomic]/[Mutex] in scope *)

val s201 : string  (** [with _ ->] catch-all that drops the exception *)

val s202 : string  (** [assert false] in library (non-test) code *)

val s203 : string  (** [exit] called from library code *)

val s204 : string  (** [failwith] called from library code *)

val s301 : string  (** library [.ml] without a matching [.mli] *)

val s302 : string  (** dune stanza missing the warnings-as-errors flags *)

val s303 : string  (** library code prints to stdout *)

val s401 : string  (** allowlist entry matched no finding (stale) *)

val s402 : string  (** allowlist entry carries no justification *)

val s403 : string  (** malformed allowlist line *)

val s404 : string
(** allowlist entry carries a [@hash] content anchor that no longer
    matches any line of the target file — the code under audit changed *)

val s406 : string
(** info: a file that does not parse — every AST rule skipped it
    (only the file-level S301/S302 still cover it); emitted so the gap
    is visible, never silent *)

(* semantic (AST-level) analysis, Msoc_analysis S5xx *)

val s502 : string
(** a [Mutex.lock] whose critical section can raise without the lock
    being released ([Fun.protect]/[Mutex.protect] absent and the
    continuation is not provably exception-free up to the unlock) *)

val s503 : string
(** [Atomic.get] followed by [Atomic.set] on the same atomic in one
    function without a [compare_and_set] loop (check-then-act race) *)

val s504 : string
(** blocking call ([Unix] I/O, channel I/O, joins/delays) while a
    lock is held, directly or through the call graph *)

val s505 : string
(** a value exported by a [.mli] is never referenced outside its own
    module, or no call passes one of its optional parameters — reads
    from [test/] not counted (dead exported API) *)

(* interprocedural resource-lifecycle and protocol-state analysis,
   Msoc_analysis S6xx *)

val s601 : string
(** a resource (fd/socket, channel, temp file, window slot) acquired
    on some path and not released on all paths — including the
    exception paths between acquire and release *)

val s602 : string
(** the same resource released twice along one path *)

val s604 : string
(** a request-dispatch branch that can complete with zero replies, or
    a path that sends two — every request-handling path must send
    exactly one envelope (or hand the obligation to a queue/window) *)

val s605 : string
(** a paired counter ([Atomic.incr]/[decr], slot or in-flight
    accounting) whose net delta differs between sibling branches of
    one function — the witness branches are reported *)

type info = { code : string; severity : Diagnostic.severity; title : string }

val all : info list
(** Every registered code, in numbering order; codes are unique. *)

val diag :
  ?file:string ->
  ?line:int ->
  string ->
  ('a, Format.formatter, unit, Diagnostic.t) format4 ->
  'a
(** [diag ?file ?line code fmt ...] is {!Diagnostic.makef} at the
    severity {!all} registers for [code] ([Error] for a code the
    registry does not hold). *)

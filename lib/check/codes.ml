let e101 = "MSOC-E101"
let e102 = "MSOC-E102"
let e103 = "MSOC-E103"
let e104 = "MSOC-E104"
let e105 = "MSOC-E105"
let e106 = "MSOC-E106"
let e107 = "MSOC-E107"
let e108 = "MSOC-E108"
let e109 = "MSOC-E109"
let e110 = "MSOC-E110"
let e111 = "MSOC-E111"
let e112 = "MSOC-E112"
let e113 = "MSOC-E113"
let e114 = "MSOC-E114"
let w101 = "MSOC-W101"
let e201 = "MSOC-E201"
let e202 = "MSOC-E202"
let e203 = "MSOC-E203"
let e204 = "MSOC-E204"
let e205 = "MSOC-E205"
let w201 = "MSOC-W201"
let e301 = "MSOC-E301"
let e302 = "MSOC-E302"
let e303 = "MSOC-E303"
let e304 = "MSOC-E304"
let e305 = "MSOC-E305"
let e306 = "MSOC-E306"
let e307 = "MSOC-E307"
let e308 = "MSOC-E308"
let e309 = "MSOC-E309"
let w302 = "MSOC-W302"
let w303 = "MSOC-W303"
let s101 = "MSOC-S101"
let s201 = "MSOC-S201"
let s202 = "MSOC-S202"
let s203 = "MSOC-S203"
let s204 = "MSOC-S204"
let s301 = "MSOC-S301"
let s302 = "MSOC-S302"
let s303 = "MSOC-S303"
let s401 = "MSOC-S401"
let s402 = "MSOC-S402"
let s403 = "MSOC-S403"
let s404 = "MSOC-S404"
let s406 = "MSOC-S406"
let s502 = "MSOC-S502"
let s503 = "MSOC-S503"
let s504 = "MSOC-S504"
let s505 = "MSOC-S505"
let s601 = "MSOC-S601"
let s602 = "MSOC-S602"
let s604 = "MSOC-S604"
let s605 = "MSOC-S605"

type info = { code : string; severity : Diagnostic.severity; title : string }

let error code title = { code; severity = Diagnostic.Error; title }

let warning code title = { code; severity = Diagnostic.Warning; title }

let info code title = { code; severity = Diagnostic.Info; title }

let all =
  [
    error e101 "TAM wire double-booked by two overlapping tests";
    error e102 "busy width exceeds the TAM width at some cycle";
    error e103 "degenerate rectangle (non-positive width/time or negative start)";
    error e104 "rectangle wider than the TAM";
    error e105 "malformed wire assignment (count, range or duplicates)";
    error e106 "tests sharing one analog wrapper overlap in time";
    error e107 "test scheduled more than once";
    error e108 "expected test missing from the schedule";
    error e109 "scheduled test not in the expected job set";
    error e110 "operating point off the job's Pareto staircase";
    error e111 "test starts before its predecessor finishes";
    error e112 "reported makespan differs from the recomputed one";
    error e113 "declared-conflict jobs overlap in time";
    error e114 "instantaneous power exceeds the budget";
    warning w101 "schedule has no placements";
    error e201 "C_A diverges from the Equation-1 recomputation";
    error e202 "C_T diverges from the makespan normalization";
    error e203 "total cost is not the weighted C_T/C_A sum";
    error e204 "reported makespan differs from the schedule's";
    error e205 "sharing combination does not partition the analog cores";
    warning w201 "zero reference makespan: C_T priced as 0 by convention";
    error e301 "duplicate core id";
    error e302 "malformed token or field value";
    error e303 "missing required Module field";
    error e304 "ScanChains count does not match the lengths given";
    error e305 "missing SocName directive";
    error e306 "non-positive pattern count";
    error e307 "non-positive scan-chain length";
    error e308 "duplicate core name (test labels would collide)";
    error e309 "core carries no test data (zero-length staircase)";
    warning w302 "SocName redeclared";
    warning w303 "SOC declares no cores";
    error s101
      "module-level mutable state in a library module without \
       Atomic/Mutex protection";
    error s201 "catch-all exception handler drops the exception";
    warning s202 "assert false in library code";
    error s203 "exit called from library code";
    error s204 "failwith called from library code";
    error s301 "library module has no .mli interface";
    error s302 "dune stanza missing the warnings-as-errors flags";
    error s303 "library code prints to stdout";
    warning s401 "allowlist entry matched no finding";
    warning s402 "allowlist entry carries no justification";
    error s403 "malformed allowlist line";
    warning s404 "allowlist anchor hash no longer matches the code";
    info s406 "file does not parse: every AST rule skipped it";
    error s502 "lock not released on all exception paths";
    error s503 "atomic check-then-act without compare_and_set";
    warning s504 "blocking call while a lock is held";
    warning s505
      "exported value or optional parameter no code outside test/ uses";
    error s601 "resource acquired but not released on all paths";
    error s602 "resource released twice on one path";
    error s604 "request-handling path breaks the one-reply obligation";
    error s605 "paired counter not balanced on all branches";
  ]

let describe code = List.find_opt (fun i -> i.code = code) all

(* The one constructor of coded findings: the severity is the
   registry's, so a rule never restates it. *)
let diag ?file ?line code fmt =
  let severity =
    match describe code with Some i -> i.severity | None -> Diagnostic.Error
  in
  Diagnostic.makef ?file ?line ~code ~severity fmt

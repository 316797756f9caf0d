exception Oracle_unavailable of { oracle : string; call : int }

type config = { seed : int; fault_period : int }

let config ?(fault_period = 97) ~seed () =
  if fault_period < 0 then invalid_arg "Faulty_oracle.config: fault_period < 0";
  { seed; fault_period }

type t = {
  cfg : config;
  mutable counter : int;
  mutable injected : int;
  m_faults : Metrics.counter;
}

let make cfg =
  {
    cfg;
    counter = 0;
    injected = 0;
    m_faults = Metrics.counter "engine.faults_injected";
  }

(* A splitmix-style finalizer over (seed, n): deterministic, stateless,
   and well-mixed enough that "hash mod period = 0" injects faults at
   the configured rate without any periodic beat against the workload.
   Constants are truncated to OCaml's 63-bit ints. *)
let mix seed n =
  let z = ref (((seed + 1) * 0x2545F4914F6CDD1D) + (n * 0x9E3779B97F4A7C)) in
  z := !z lxor (!z lsr 29);
  z := !z * 0x106689D45497FDB5;
  z := !z lxor (!z lsr 32);
  !z land max_int

let pre t ~oracle =
  let n = t.counter in
  t.counter <- n + 1;
  if t.cfg.fault_period > 0 && mix t.cfg.seed n mod t.cfg.fault_period = 0
  then begin
    t.injected <- t.injected + 1;
    Metrics.incr t.m_faults;
    raise (Oracle_unavailable { oracle; call = n })
  end

let faults_injected t = t.injected

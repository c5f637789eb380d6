/* Process hygiene for the forked verification workers: rlimits and a
   parent-death signal, neither of which the OCaml Unix library exposes.

   The two resources the sandbox caps (address space, CPU seconds) go
   through setrlimit here.

   veriopt_vproc_setrlimit(which, limit):
     which = 0 -> RLIMIT_AS   (bytes)
     which = 1 -> RLIMIT_CPU  (seconds)
   Sets both the soft and the hard limit (the child only ever lowers them,
   which never needs privilege).  Returns 0 on success, -1 on failure —
   callers treat failure as "run unlimited", never as fatal. */

#include <caml/mlvalues.h>
#include <signal.h>
#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

CAMLprim value veriopt_vproc_setrlimit(value v_which, value v_limit)
{
  struct rlimit rl;
  int resource;
  switch (Int_val(v_which)) {
  case 0:
    resource = RLIMIT_AS;
    break;
  case 1:
    resource = RLIMIT_CPU;
    break;
  default:
    return Val_int(-1);
  }
  rl.rlim_cur = (rlim_t)Long_val(v_limit);
  rl.rlim_max = (rlim_t)Long_val(v_limit);
  return Val_int(setrlimit(resource, &rl));
}

/* veriopt_vproc_pdeathsig(): have the kernel SIGKILL the calling process
   when its parent dies, so a supervisor or worker wedged where it never
   looks at getppid (blocked in waitpid, spinning in a handler) still dies
   with the process that forked it.  The signal is tied to the thread that
   called fork, which for a pool is the thread that created it.  Returns 0
   on success, -1 where prctl is missing or fails; callers then rely on
   their own getppid checks. */
CAMLprim value veriopt_vproc_pdeathsig(value v_unit)
{
  (void)v_unit;
#ifdef __linux__
  return Val_int(prctl(PR_SET_PDEATHSIG, SIGKILL));
#else
  return Val_int(-1);
#endif
}

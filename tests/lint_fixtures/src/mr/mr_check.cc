DWM_CHECK(status.ok());  // mr-check
DWM_AUDIT_CHECK(status.ok());
// dwm-lint: allow(mr-check): programmer-error backstop
DWM_CHECK_GE(slots, 1);
// dwm-lint: allow(mr-check)
DWM_CHECK_GE(slots, 2);  // mr-check: an allow with no reason is inert
